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
	more *ring
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

// push appends m at the tail. It stays small enough to inline into
// enqueue and deliverLocal (scripts/check.sh fails the build otherwise); a
// record that has a ring, or a message behind the head, takes the
// out-of-line pushMore.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (q *mailbox) push(m *msg.Message) {
	if q.head == nil && q.more == nil {
		q.head = m //demos:owner mailbox — the queue holds a delivered envelope (or the kernel's timer mark) until Recv pops it, a crash wipes it, or step 6 and redeliver move it on.
		return
	}
	q.pushMore(m)
}

// pushMore is push where the record has a ring or the head is taken: m
// takes the head if the queue is empty, and otherwise goes to the back of
// the ring, made at the first, which keeps the queue's high-water mark.
//
//go:noinline
func (q *mailbox) pushMore(m *msg.Message) {
	if q.head == nil && q.more.n == 0 {
		q.head = m //demos:owner mailbox — as in push.
		return
	}
	if q.more == nil {
		q.more = &ring{}
	}
	q.more.push(m)
	n := q.more.n
	if q.head != nil {
		n++
	}
	q.more.hw = max(q.more.hw, n)
}

// noteHighWater raises the queue's high-water mark to n, which a migrated
// process's resident record carries. A mark past 1 lives in the ring, so a
// queue that has none makes one (an arrival whose queue once held two
// messages, on a record that never has).
func (q *mailbox) noteHighWater(n uint32) {
	if n <= 1 {
		return
	}
	if q.more == nil {
		q.more = &ring{}
	}
	q.more.hw = max(q.more.hw, n)
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

// ring is a growable FIFO over a power-of-two circular buffer, a mailbox's
// tail: a pop never strands backing-array capacity, so a busy queue
// reaches a steady state where push and pop touch no allocator at all. hw
// is the most messages its mailbox has held at once, head included
// (Process.queueHighWater): only a queue with a ring gets past 1. A
// recycled record keeps its ring, emptied, with hw back at 0.
type ring struct {
	buf     []*msg.Message
	head, n uint32
	hw      uint32
}

// Len returns the number of queued messages.
func (r *ring) Len() int { return int(r.n) }

// push appends m at the tail.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (r *ring) push(m *msg.Message) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[int(r.head+r.n)&(len(r.buf)-1)] = m //demos:owner mailbox — as in mailbox.push.
	r.n++
}

// pop removes and returns the head message (nil when empty).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (r *ring) pop() *msg.Message {
	if r.n == 0 {
		return nil
	}
	m := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return m
}

// at returns the i-th queued message (0 = head) without removing it.
func (r *ring) at(i int) *msg.Message { return r.buf[(int(r.head)+i)&(len(r.buf)-1)] }

func (r *ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 2
	}
	nb := make([]*msg.Message, size)
	for i := range r.Len() {
		nb[i] = r.at(i)
	}
	r.buf = nb
	r.head = 0
}
