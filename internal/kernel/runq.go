package kernel

// runQueue is the kernel's FIFO of Ready processes, chained through the
// records themselves: head and tail here, and each queued record's runNext
// naming the one behind it. A pop reads the line of the record the slice
// steps next anyway, and a push writes the kernel and the old tail, so the
// scheduler keeps no backing array of its own: nothing to touch cold per
// slice, nothing to double as the queue grows. A record is queued exactly
// when its runNext is set or it is the tail (has), so membership needs no
// flag of its own; every path that takes a record off the queue (pop,
// remove) clears its runNext.
type runQueue struct {
	head, tail *Process
}

// empty reports whether no process is queued.
func (q *runQueue) empty() bool { return q.head == nil }

// has reports whether p is queued.
func (q *runQueue) has(p *Process) bool { return p.runNext != nil || q.tail == p }

// push appends p, which must not be queued, at the tail.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (q *runQueue) push(p *Process) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.runNext = p
	}
	q.tail = p
}

// pop removes and returns the head, nil when the queue is empty.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (q *runQueue) pop() *Process {
	p := q.head
	if p == nil {
		return nil
	}
	q.head, p.runNext = p.runNext, nil
	if q.head == nil {
		q.tail = nil
	}
	return p
}

// remove takes p off the queue out of turn (suspension, migration freeze,
// kill), keeping the order of the rest, and reports whether it was queued.
// It walks from the head to p's predecessor; a record that is not queued
// (runSlice popped it, or it was waiting) costs no walk.
func (q *runQueue) remove(p *Process) bool {
	if !q.has(p) {
		return false
	}
	var prev *Process
	for c := q.head; c != p; c = c.runNext {
		prev = c
	}
	if prev == nil {
		q.head = p.runNext
	} else {
		prev.runNext = p.runNext
	}
	if q.tail == p {
		q.tail = prev
	}
	p.runNext = nil
	return true
}

// Len returns the number of queued processes by walking the chain; only
// load reports and tests ask.
func (q *runQueue) Len() int {
	n := 0
	for c := q.head; c != nil; c = c.runNext {
		n++
	}
	return n
}
