// Open-loop workload driver: one self-rescheduling arrival event per
// machine, scheduled on that machine's own engine (EngineOf), so the
// streaming generator works identically for every shard count. Nothing is
// materialized up front — each machine holds one arrival cursor and the
// next arrival event; a million-process run costs one pending event per
// machine at any instant.
package core

import (
	"demosmp/internal/kernel"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// OpenLoopDriver reports spawn progress for a running open-loop workload.
// Counters are per-machine slots, each written only by its machine's shard
// goroutine, so reads are exact between runs and race-free during them.
type OpenLoopDriver struct {
	spawned []uint64 // indexed by machine id
	failed  []uint64
}

// Spawned returns the number of jobs started so far.
func (d *OpenLoopDriver) Spawned() uint64 { return sum(d.spawned) }

// Failed returns the number of arrivals whose spawn was rejected.
func (d *OpenLoopDriver) Failed() uint64 { return sum(d.failed) }

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// StartOpenLoop installs the streaming open-loop workload on every machine.
// Call after New and before Run; the arrival events are strong, so Run
// continues until every machine's stream is exhausted and all jobs exited.
func (c *Cluster) StartOpenLoop(cfg workload.OpenLoop) *OpenLoopDriver {
	d := &OpenLoopDriver{
		spawned: make([]uint64, c.Machines()+1),
		failed:  make([]uint64, c.Machines()+1),
	}
	for m := 1; m <= c.Machines(); m++ {
		c.armArrivals(m, workload.NewArrivals(cfg, m), d, cfg.Spin)
	}
	return d
}

// arrivals is machine m's open-loop driver: the arrival cursor, the
// service demand of the arrival armed next, and fire bound once, so an
// arrival allocates nothing but its job.
type arrivals struct {
	st     *workload.Arrivals
	eng    *sim.Engine
	k      *kernel.Kernel
	d      *OpenLoopDriver
	m      int
	spin   bool
	svc    sim.Time
	fireFn func()
}

// armArrivals schedules machine m's first arrival; its event spawns the job
// and re-arms for the following one (streaming: one pending event per
// machine, never the whole arrival sequence).
func (c *Cluster) armArrivals(m int, st *workload.Arrivals, d *OpenLoopDriver, spin bool) {
	a := &arrivals{st: st, eng: c.EngineOf(m), k: c.Kernel(m), d: d, m: m, spin: spin}
	a.fireFn = a.fire
	a.arm()
}

// arm schedules the next arrival, if the stream has one.
func (a *arrivals) arm() {
	if at, svc, ok := a.st.Next(); ok {
		a.svc = svc
		a.eng.At(at, "wl:arrival", a.fireFn)
	}
}

// fire spawns the armed arrival's job and arms the next.
func (a *arrivals) fire() {
	var body proc.Body
	// In Spin mode the service demand (µs) converts to an instruction
	// budget at the kernel's modeled instruction cost, so a spinner
	// occupies the CPU for the same simulated time the timer job would
	// have slept.
	if a.spin {
		work := int(uint64(a.svc) * 1000 / kernel.InstrCostNanos)
		if work < 1 {
			work = 1
		}
		body = &workload.Spinner{Work: work}
	} else {
		body = &workload.Job{Service: a.svc}
	}
	if _, err := a.k.Spawn(kernel.SpawnSpec{Body: body}); err != nil {
		a.d.failed[a.m]++
	} else {
		a.d.spawned[a.m]++
	}
	a.arm()
}

// jobBody is a compile-time check that the open-loop job satisfies the
// process contract the spawn path expects.
var _ proc.Body = (*workload.Job)(nil)
