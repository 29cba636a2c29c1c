package kernel

import "demosmp/internal/msg"

// mailbox is a process's message queue: one message inline, and a ring
// for the rest, made when a message arrives at a queue that is not empty.
// Most queues never hold more than one message at a time (a job's fired
// timer), so most records never allocate a ring; a recycled record keeps
// the one it has. Counted per push on the benchmark's workloads (seeds 1
// and 2): every push of pingpong and pingpong-par, and all but 2 of
// openloop-1000's 200 640, take the inline head; on migrate-storm 15-16 %
// of pushes, and on lossy-chatter 19-21 %, go past it into a ring, and
// 61 % and 50 % take pushMore, since a record that has a ring takes it for
// every push. A message takes the inline head only when the queue is
// empty, so the head, when set, is the oldest message, and pop takes it
// before the ring's. At 16 bytes the mailbox leaves a record's first cache
// line room for its state, body and CPU time.
type mailbox struct {
	head *msg.Message
	more *ring[*msg.Message]
}

// Len returns the number of queued messages.
func (q *mailbox) Len() int {
	n := 0
	if q.head != nil {
		n = 1
	}
	if q.more != nil {
		n += q.more.Len()
	}
	return n
}

// push appends m at the tail and returns the queue's new length. It stays
// small enough to inline into enqueue and deliverLocal (scripts/check.sh
// fails the build otherwise); a record that has a ring, or a message
// behind the head, takes the out-of-line pushMore.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (q *mailbox) push(m *msg.Message) uint32 {
	if q.head == nil && q.more == nil {
		q.head = m //demos:owner mailbox — the queue holds a delivered envelope (or the kernel's timer mark) until Recv pops it, a crash wipes it, or step 6 and redeliver move it on.
		return 1
	}
	return q.pushMore(m)
}

// pushMore is push where the record has a ring or the head is taken: m
// takes the head if the queue is empty, and otherwise goes to the back of
// the ring, made at the first.
//
//go:noinline
func (q *mailbox) pushMore(m *msg.Message) uint32 {
	if q.head == nil && q.more.n == 0 {
		q.head = m //demos:owner mailbox — as in push.
		return 1
	}
	if q.more == nil {
		q.more = &ring[*msg.Message]{}
	}
	q.more.push(m)
	if q.head == nil {
		return q.more.n
	}
	return 1 + q.more.n
}

// pop removes and returns the oldest message (nil when empty).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (q *mailbox) pop() *msg.Message {
	if m := q.head; m != nil {
		q.head = nil
		return m
	}
	if q.more == nil {
		return nil
	}
	return q.more.pop()
}

// at returns the i-th queued message (0 = the oldest) without removing it.
func (q *mailbox) at(i int) *msg.Message {
	if q.head != nil {
		if i == 0 {
			return q.head
		}
		i--
	}
	return q.more.at(i)
}

// ring is a growable FIFO over a power-of-two circular buffer. The run
// queue and a mailbox's tail use it instead of append-grown slices: a pop
// never strands backing-array capacity, so a busy queue reaches a steady
// state where push and pop touch no allocator at all.
type ring[T comparable] struct {
	buf  []T
	head uint32
	n    uint32
}

// Len returns the number of queued elements.
func (r *ring[T]) Len() int { return int(r.n) }

// push appends v at the tail.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (r *ring[T]) push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[int(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head element (the zero value when empty).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (r *ring[T]) pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return v
}

// at returns the i-th queued element (0 = head) without removing it.
func (r *ring[T]) at(i int) T { return r.buf[(int(r.head)+i)&(len(r.buf)-1)] }

// remove deletes the first occurrence of v, preserving FIFO order of the
// rest. Used when a process leaves the run queue out of turn (suspension,
// migration freeze).
func (r *ring[T]) remove(v T) bool {
	for i := 0; i < r.Len(); i++ {
		if r.at(i) != v {
			continue
		}
		for j := i; j < r.Len()-1; j++ {
			r.buf[(int(r.head)+j)&(len(r.buf)-1)] = r.at(j + 1)
		}
		r.n--
		var zero T
		r.buf[int(r.head+r.n)&(len(r.buf)-1)] = zero
		return true
	}
	return false
}

func (r *ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 2
	}
	nb := make([]T, size)
	for i := range r.Len() {
		nb[i] = r.at(i)
	}
	r.buf = nb
	r.head = 0
}
