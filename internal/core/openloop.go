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
// It holds the one config every machine's stream reads and each machine's
// driver state in one slot of a dense table. A slot is written only by its
// machine's shard goroutine, so reads are exact between runs and race-free
// during them.
type OpenLoopDriver struct {
	cfg workload.OpenLoop
	ms  []arrivals // ms[m-1] is machine m's
}

// Spawned returns the number of jobs started so far.
func (d *OpenLoopDriver) Spawned() uint64 {
	var n uint64
	for i := range d.ms {
		n += d.ms[i].spawned
	}
	return n
}

// Failed returns the number of arrivals whose spawn was rejected.
func (d *OpenLoopDriver) Failed() uint64 {
	var n uint64
	for i := range d.ms {
		n += d.ms[i].failed
	}
	return n
}

// StartOpenLoop installs the streaming open-loop workload on every machine.
// Call after New and before Run; the arrival events are strong, so Run
// continues until every machine's stream is exhausted and all jobs exited.
func (c *Cluster) StartOpenLoop(cfg workload.OpenLoop) *OpenLoopDriver {
	d := &OpenLoopDriver{cfg: cfg, ms: make([]arrivals, c.Machines())}
	for i := range d.ms {
		m := i + 1
		a := &d.ms[i]
		a.Arrivals = workload.NewArrivals(&d.cfg, m)
		a.eng, a.k, a.spin = c.EngineOf(m), c.Kernel(m), cfg.Spin
		a.fireFn = a.fire
		a.arm()
	}
	return d
}

// arrivals is machine m's open-loop driver: the arrival cursor, the
// service demand of the arrival armed next, the machine's spawn counts, and
// fire bound once, so an arrival allocates nothing but its job. It arms
// its next arrival as its event fires (streaming: one pending event per
// machine, never the whole arrival sequence).
type arrivals struct {
	workload.Arrivals
	eng             *sim.Engine
	k               *kernel.Kernel
	spin            bool
	svc             sim.Time
	spawned, failed uint64
	fireFn          func()
}

// arm schedules the next arrival, if the stream has one.
func (a *arrivals) arm() {
	if at, svc, ok := a.Next(); ok {
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
		a.failed++
	} else {
		a.spawned++
	}
	a.arm()
}

// jobBody is a compile-time check that the open-loop job satisfies the
// process contract the spawn path expects.
var _ proc.Body = (*workload.Job)(nil)
