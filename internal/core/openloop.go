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
// It holds the one config every machine's stream reads, the two job bodies
// every timer-driven job shares (a workload.Job is stateless, so every job
// of one service time runs the same one), and each machine's driver state
// in one slot of a dense table. A slot is written only by its machine's
// shard goroutine, so reads are exact between runs and race-free during
// them; the bodies and the config are only read.
type OpenLoopDriver struct {
	cfg         workload.OpenLoop
	short, long workload.Job
	ms          []arrivals // ms[m-1] is machine m's
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
		a.d, a.eng, a.k = d, c.EngineOf(m), c.Kernel(m)
		a.fireFn = a.fire
	}
	// NewArrivals has filled the config's default service times.
	d.short.Service, d.long.Service = d.cfg.ShortService, d.cfg.LongService
	for i := range d.ms {
		d.ms[i].arm()
	}
	return d
}

// arrivals is machine m's open-loop driver: the arrival cursor, the
// driver, the shared job body of the arrival armed next (whose Service is
// its demand), the machine's spawn counts, and fire bound once, so an
// arrival of a timer-driven job allocates nothing. It arms its next
// arrival as its event fires (streaming: one pending event per machine,
// never the whole arrival sequence).
type arrivals struct {
	workload.Arrivals
	d               *OpenLoopDriver
	eng             *sim.Engine
	k               *kernel.Kernel
	job             *workload.Job
	spawned, failed uint64
	fireFn          func()
}

// arm schedules the next arrival, if the stream has one.
func (a *arrivals) arm() {
	if at, svc, ok := a.Next(); ok {
		// The stream draws only the config's two service times.
		a.job = &a.d.short
		if svc == a.d.cfg.LongService {
			a.job = &a.d.long
		}
		a.eng.At(at, "wl:arrival", a.fireFn)
	}
}

// fire spawns the armed arrival's job and arms the next.
func (a *arrivals) fire() {
	var body proc.Body = a.job
	// In Spin mode the service demand (µs) converts to an instruction
	// budget at the kernel's modeled instruction cost, so a spinner
	// occupies the CPU for the same simulated time the timer job would
	// have slept. A Spinner counts its work down, so each has its own.
	if a.d.cfg.Spin {
		work := int(uint64(a.job.Service) * 1000 / kernel.InstrCostNanos)
		if work < 1 {
			work = 1
		}
		body = &workload.Spinner{Work: work}
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
