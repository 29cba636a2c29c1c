package kernel

import "demosmp/internal/proc"

// freelist is a LIFO of released records of one type: pending records and
// migration halves (Process records chain through themselves, below). What
// survives recycling (scratch buffers, once-bound closures, a mailbox's
// ring) is decided where the record is put; get returns nil when the list
// is empty, so the get site constructs a fresh record and binds whatever
// must be bound exactly once.
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

// parked is a Process record waiting on the kernel's free chain
// (Kernel.procFree), seen through its body field: a parked record's body
// is a *parked naming the next parked record, nil at the chain's end. The
// chain so costs no byte beyond the records themselves, where a slice of
// pointers would keep 8 B a record and copy itself as it doubles. A
// *parked is a proc.Body only to fit the field: a parked record is in no
// table and on no run queue, so nothing steps it, and each method panics
// to make a path that reaches one loud.
type parked Process

func (*parked) Kind() string                              { panic(parkedBody) }
func (*parked) Step(proc.Context, int) (int, proc.Status) { panic(parkedBody) }
func (*parked) Snapshot() ([]byte, error)                 { panic(parkedBody) }
func (*parked) Restore([]byte) error                      { panic(parkedBody) }

const parkedBody = "kernel: a parked process record reached a body call"

// getParked takes the most recently parked record off the free chain, nil
// when the chain is empty.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) getParked() *Process {
	p := k.procFree
	if p != nil {
		k.procFree = (*Process)(p.body.(*parked))
		p.body = nil
	}
	return p
}

// park puts a released record (body already cleared) at the head of the
// free chain.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) park(p *Process) {
	p.body = (*parked)(k.procFree)
	k.procFree = p
}
