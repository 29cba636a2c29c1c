package kernel

// ring is a growable FIFO over a power-of-two circular buffer. Process
// message queues and the run queue use it instead of append-grown slices:
// a pop never strands backing-array capacity, so a busy queue reaches a
// steady state where push and pop touch no allocator at all. The counters
// are 32-bit so that a ring is 32 bytes and fits a process record's first
// cache line with its state, body and CPU time.
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
		size = 2 // most queues never hold more than a timer message
	}
	nb := make([]T, size)
	for i := range r.Len() {
		nb[i] = r.at(i)
	}
	r.buf = nb
	r.head = 0
}
