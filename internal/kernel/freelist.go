package kernel

import (
	"demosmp/internal/msg"
	"demosmp/internal/proc"
)

// The kernel's recyclers are LIFO chains through the released records
// themselves: Process records through their body field (parked, below),
// pending records and migration halves through a next field. A chain costs
// no backing slice that keeps 8 B a record and copies itself as it
// doubles, and its head is the record the next get touches anyway. What
// survives recycling (scratch buffers, once-bound closures, a mailbox's
// ring) is decided where the record is put; a get finds nil on an empty
// chain, so the get site constructs a fresh record and binds whatever must
// be bound exactly once.

// getPending takes a pending record off the free chain (a fresh one when
// the chain is empty) and loads it with m for one hop.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
//demos:owner pending — the pooled pending record owns its envelope for exactly one scheduled hop; run() hands it back to route, which releases or re-queues it.
func (k *Kernel) getPending(m *msg.Message, resubmit bool) *pending {
	d := k.pendingFree
	if d == nil {
		d = k.newPending()
	} else {
		k.pendingFree, d.next = d.next, nil
	}
	d.m = m
	d.resubmit = resubmit
	return d
}

// putPending puts a released pending record (m already cleared) at the
// head of the free chain.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) putPending(d *pending) {
	d.next = k.pendingFree
	k.pendingFree = d
}

// getMigration takes a migration half off the cold record's free chain,
// nil when the chain is empty.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (c *coldState) getMigration() *migration {
	mg := c.migFree
	if mg != nil {
		c.migFree, mg.next = mg.next, nil
	}
	return mg
}

// putMigration puts a released half (already reset by endMigration) at the
// head of the free chain.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (c *coldState) putMigration(mg *migration) {
	mg.next = c.migFree
	c.migFree = mg
}

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
