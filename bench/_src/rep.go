package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"demosmp"
)

// timedSlices is how many equal simulated-time slices a workload's horizon is
// cut into; a workload that drains keeps slicing at the same step until the
// cluster is quiescent. A slice does the same simulated work in every
// repetition of a seed, so the end-to-end run compares repetitions slice by
// slice. op_ns_p50 is the median over the slices and host.op_ns_p99 the 99th
// percentile (ten samples beyond it).
const timedSlices = 1000

// repResult is what one repetition (one fresh child process) reports.
type repResult struct {
	Traced bool `json:"traced"`

	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	Ops    uint64  `json:"ops"`
	Msgs   uint64  `json:"msgs"`
	// Host ns per op over the slices that completed ops; SliceSamples is
	// the sample count behind the two quantiles.
	OpNsP50      float64 `json:"op_ns_p50"`
	OpNsP99      float64 `json:"op_ns_p99"`
	SliceSamples int     `json:"slice_samples"`
	// Host ns and ops completed of every slice of the timed window, in
	// order. The ops repeat exactly for a seed; the times are what the
	// end-to-end run takes its slice-wise minimum over.
	SliceNs  []float64 `json:"slice_ns"`
	SliceOps []uint64  `json:"slice_ops"`

	Machines  int     `json:"machines"`
	HeapLive  uint64  `json:"heap_live_bytes"` // HeapAlloc after GC at end of setup
	HeapPeak  uint64  `json:"heap_peak_bytes"` // HeapSys at end of the rep
	Mallocs   uint64  `json:"mallocs"`         // over the timed window
	AllocB    uint64  `json:"alloc_bytes"`     // over the timed window
	GCCycles  uint32  `json:"gc_cycles"`       // over the timed window
	GCPauseMs float64 `json:"gc_pause_ms"`     // over the timed window
	CPUS      float64 `json:"cpu_s"`           // process user+system CPU, whole rep

	CalibBeforeNs float64 `json:"calib_before_ns"`
	CalibAfterNs  float64 `json:"calib_after_ns"`

	Attempted   uint64   `json:"attempted"`
	Failed      uint64   `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	Fingerprint string   `json:"sim_fingerprint"`

	// Counters are the per-layer counts read from public Stats after the
	// timed window; simulated counts repeat exactly.
	Counters map[string]float64 `json:"counters"`
	Spans    *spanReport        `json:"spans,omitempty"`
}

// calibrate runs a fixed pure-CPU loop and returns host ns per iteration
// (best of 3, so a process that has only just been scheduled does not read
// as a slow host). Sampled before and after every repetition: a drift flags
// a host that was busy with something else.
func calibrate() float64 {
	const n = 1_000_000
	best := 0.0
	for r := 0; r < 3; r++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		calibSink += x
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

var calibSink uint64

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRep builds the workload, runs its timed window and checks the result.
func runRep(s spec, p params, traced bool) (repResult, error) {
	res := repResult{Traced: traced, CalibBeforeNs: calibrate()}

	setupStart := time.Now()
	inst, err := s.build(p)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	res.SetupS = time.Since(setupStart).Seconds()
	res.Machines = inst.machines

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res.HeapLive = m0.HeapAlloc

	var finishSpans func() spanReport
	if traced {
		finishSpans = installTracers(inst, time.Now())
	}
	// Room for a drain several horizons long, so that recording a slice
	// does not allocate inside the timed window; the window's allocation
	// counts start after the benchmark's own.
	res.SliceNs = make([]float64, 0, 8*timedSlices)
	res.SliceOps = make([]uint64, 0, 8*timedSlices)
	step := inst.horizon / timedSlices
	if step < 1 {
		step = 1
	}
	// Reading the progress is not part of the workload, so the clock stops
	// for it: the timed window is the sum of the slices.
	var (
		prevOps uint64
		prevT   time.Time
		window  time.Duration
	)
	slice := func(run func()) {
		run()
		d := time.Since(prevT)
		ops := inst.progress()
		window += d
		res.SliceNs = append(res.SliceNs, float64(d.Nanoseconds()))
		res.SliceOps = append(res.SliceOps, ops-prevOps)
		prevOps, prevT = ops, time.Now()
	}
	runStep, runRest := func() { inst.c.RunFor(step) }, inst.c.Run
	runtime.ReadMemStats(&m0)
	prevOps, prevT = inst.progress(), time.Now()
	for i := 0; i < timedSlices || (inst.drain && busy(inst.c)); i++ {
		slice(runStep)
	}
	if inst.drain {
		// Whatever busy cannot see (a frame still in a shard mailbox) is
		// one last slice; normally it is empty.
		slice(runRest)
	}
	res.WallS = window.Seconds()
	if traced {
		rep := finishSpans()
		res.Spans = &rep
	}
	runtime.ReadMemStats(&m1)
	res.HeapPeak = m1.HeapSys
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocB = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	perOp := nsPerOp(res.SliceNs, res.SliceOps)
	res.SliceSamples = len(perOp)
	res.OpNsP50, res.OpNsP99 = quantile(perOp, 0.5), quantile(perOp, 0.99)
	res.Ops, res.Msgs = inst.ops(), inst.msgs()

	ks := sumKernelStats(inst.c)
	res.Fingerprint = fingerprint(inst.c, ks)
	res.Counters = counters(inst, ks, res)

	v := newVerdict()
	v.attempted += res.Ops
	inst.verify(v)
	v.check(res.Ops > 0, "%s: no %s completed", s.name, s.op)
	v.check(res.Msgs > 0, "%s: no user message received", s.name)
	res.Attempted, res.Failed, res.Failures = v.attempted, v.failed, v.failures
	for _, k := range modelMetrics {
		res.Counters[k] = v.model[k]
	}
	res.Counters["model.sim_end_us"] = float64(inst.c.Now())

	res.CPUS = cpuSeconds()
	res.CalibAfterNs = calibrate()
	return res, nil
}

// busy reports whether the cluster still has work that Run() would do: a
// strong event on some engine or a frame waiting in a canonical pending heap.
func busy(c *demosmp.Cluster) bool {
	for s := 0; s < max(c.Shards(), 1); s++ {
		if c.EngineOfShard(s).StrongPending() > 0 {
			return true
		}
	}
	return c.PendingFrames() > 0
}

// nsPerOp is the host ns per op of every slice that completed ops, sorted.
func nsPerOp(sliceNs []float64, sliceOps []uint64) []float64 {
	var out []float64
	for i, ns := range sliceNs {
		if sliceOps[i] > 0 {
			out = append(out, ns/float64(sliceOps[i]))
		}
	}
	sort.Float64s(out)
	return out
}

// modelMetrics are simulated results (the §6 bill). They are 0 on workloads
// that migrate nothing.
var modelMetrics = []string{
	"model.admin_msgs_per_migration", "model.admin_bytes_min", "model.admin_bytes_max",
	"model.transfers_per_migration", "model.frames_per_forward", "model.migration_freeze_us_p50",
}

// counters reads the per-layer counts of one finished repetition.
func counters(inst *instance, ks map[string]uint64, res repResult) map[string]float64 {
	c := inst.c
	ns := c.NetStats()
	fired := c.TotalFired()
	out := map[string]float64{
		"sim.events":       float64(fired),
		"sim.events_per_s": float64(fired) / res.WallS,
		"sim.rounds":       float64(c.Rounds()),

		"netw.frames":         float64(ns.Frames),
		"netw.bytes":          float64(ns.Bytes),
		"netw.duplicates":     float64(ns.Duplicates),
		"netw.dead":           float64(ns.Dead),
		"netw.orphan_dropped": float64(ns.OrphanDropped),

		"kernel.msgs_routed":   float64(ks["MsgsRouted"]),
		"kernel.msgs_enqueued": float64(ks["MsgsEnqueued"]),
		"kernel.slices":        float64(ks["Slices"]),
		"kernel.forwarded":     float64(ks["Forwarded"]),
		"kernel.link_updates":  float64(ks["LinkUpdatesSent"]),
		"kernel.msgs_held":     float64(ks["MsgsHeld"]),
		"kernel.dead_letters":  float64(ks["DeadLetters"]),
		"kernel.spawned":       float64(ks["Spawned"]),
		"kernel.migrations":    float64(ks["MigrationsOut"]),
	}
	if r := c.Rounds(); r > 0 {
		out["sim.events_per_round"] = float64(fired) / float64(r)
	}
	// Shard balance: least-loaded engine's events over the most-loaded's
	// (1 on a single engine).
	lo, hi := fired, uint64(0)
	for s := 0; s < max(c.Shards(), 1); s++ {
		f := c.EngineOfShard(s).Fired()
		lo, hi = min(lo, f), max(hi, f)
	}
	if hi > 0 {
		out["sim.shard_balance"] = float64(lo) / float64(hi)
	}
	if res.Msgs > 0 {
		out["netw.frames_per_msg"] = float64(ns.Frames) / float64(res.Msgs)
	}
	if ns.Frames > 0 {
		out["netw.retransmit_ratio"] = float64(ns.Retransmits) / float64(ns.Frames)
	}
	return out
}
