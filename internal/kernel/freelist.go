package kernel

// freelist is the kernel's one free list: a LIFO of released records of one
// type. What survives recycling (scratch buffers, once-bound closures, a
// mailbox's ring) is decided where the record is put; get returns nil when
// the list is empty, so the get site constructs a fresh record and binds
// whatever must be bound exactly once.
type freelist[T any] struct{ free []*T }

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (l *freelist[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (l *freelist[T]) put(x *T) { l.free = append(l.free, x) }
