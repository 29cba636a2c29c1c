// Package experiment is the policy tournament harness: it runs named,
// seeded A/B arms — same seed, same workload, policies swapped — computes
// paired metrics, and emits a confirm/refute verdict per hypothesis, in
// the hypothesis-catalog style of inference-sim. The paper shipped the
// migration mechanism and punted on strategy (§7); this package is how
// strategy candidates earn their way in: beat the baseline on the same
// deterministic workload or be refuted, with the evidence in a findings
// artifact that reproduces bit-identically from the seed.
package experiment

import (
	"fmt"
	"math"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/policy"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// RunSpec describes one arm's cluster and workload. Policy is a factory —
// policies hold hysteresis state, so every run needs a fresh instance.
type RunSpec struct {
	Machines        int
	Shards          int
	Parallel        bool
	Seed            int64
	LoadReportEvery sim.Time
	Horizon         sim.Time // simulated runtime bound
	Workload        workload.OpenLoop
	Policy          func() policy.Policy
	PolicyName      string

	// Pipelines adds cross-machine chatter→sink pairs (communication
	// structure for affinity policies to exploit). Pair k runs its
	// chatter on machine (k mod M)+1 talking to a sink halfway around
	// the cluster.
	Pipelines    int
	PipelineMsgs int
	PipelineGap  sim.Time

	// TraceCap sizes the trace ring (0 = cluster default) and Observe,
	// when set, receives the finished cluster before metrics are
	// collected — the hook the tournament uses to export an obs
	// timeline. Neither influences the run itself.
	TraceCap int
	Observe  func(*core.Cluster)
}

// Metrics are one arm's paired outcome measures. All integers, all in
// simulated units — byte-identical across runs of the same spec.
type Metrics struct {
	JobsFinished   uint64   `json:"jobs_finished"`
	JobsUnfinished uint64   `json:"jobs_unfinished"`
	P50Latency     sim.Time `json:"p50_latency_us"`
	P99Latency     sim.Time `json:"p99_latency_us"`
	Makespan       sim.Time `json:"makespan_us"`

	CrossUserFrames uint64 `json:"cross_user_frames"`
	CrossUserBytes  uint64 `json:"cross_user_bytes"`

	PolicySweeps      uint64 `json:"policy_sweeps"`
	PolicyDecisions   uint64 `json:"policy_decisions"`
	MigrationsOrdered uint64 `json:"migrations_ordered"`
	MigrationsDone    uint64 `json:"migrations_done"`

	// Migration cost actually paid, from the §6 ledger.
	FreezePaid       sim.Time `json:"freeze_paid_us"`
	AdminBytesPaid   uint64   `json:"admin_bytes_paid"`
	ForwardsAbsorbed uint64   `json:"forwards_absorbed"`

	// LoadStddevMilli is the per-machine CPU-busy standard deviation in
	// thousandths of the mean (coefficient of variation, ‰).
	LoadStddevMilli uint64 `json:"load_stddev_milli"`
}

// jobRec tracks one spawned job for completion-latency accounting.
type jobRec struct {
	pid addr.ProcessID
	at  sim.Time
}

// arrivals is one machine's job stream: the arrival cursor, the arrival
// armed next, the machine's job log, and fire bound once, so an arrival
// allocates only its Spinner and its log entry. It arms the next arrival
// as its event fires, as core's open-loop driver does.
type arrivals struct {
	workload.Arrivals
	eng     *sim.Engine
	k       *kernel.Kernel
	log     *[]jobRec
	at, svc sim.Time
	fireFn  func()
}

// startArrivals arms every machine's job stream over cfg, in spin mode,
// logging each spawned job in jobs[m].
func startArrivals(c *core.Cluster, cfg *workload.OpenLoop, jobs [][]jobRec) {
	cfg.Spin = true
	as := make([]arrivals, c.Machines())
	for i := range as {
		m := i + 1
		a := &as[i]
		a.Arrivals = workload.NewArrivals(cfg, m)
		a.eng, a.k, a.log = c.EngineOf(m), c.Kernel(m), &jobs[m]
		a.fireFn = a.fire
		a.arm()
	}
}

// arm schedules the next arrival, if the stream has one.
func (a *arrivals) arm() {
	if at, svc, ok := a.Next(); ok {
		a.at, a.svc = at, svc
		a.eng.At(at, "exp:arrival", a.fireFn)
	}
}

// fire spawns the armed arrival's job, logs it and arms the next.
func (a *arrivals) fire() {
	work := int(uint64(a.svc) * 1000 / kernel.InstrCostNanos)
	if work < 1 {
		work = 1
	}
	if pid, err := a.k.Spawn(kernel.SpawnSpec{Body: &workload.Spinner{Work: work}}); err == nil {
		*a.log = append(*a.log, jobRec{pid: pid, at: a.at})
	}
	a.arm()
}

// Run executes one arm and collects its metrics.
func Run(spec RunSpec) (Metrics, error) {
	var zero Metrics
	if spec.Machines < 2 {
		return zero, fmt.Errorf("experiment: need >= 2 machines")
	}
	if spec.Horizon <= 0 {
		return zero, fmt.Errorf("experiment: need a positive horizon")
	}
	var pol policy.Policy
	if spec.Policy != nil {
		pol = spec.Policy()
	}
	c, err := core.New(core.Options{
		Machines:      spec.Machines,
		Seed:          spec.Seed,
		Shards:        spec.Shards,
		ShardParallel: spec.Parallel,
		PM:            true,
		Kernel:        kernel.Config{LoadReportEvery: spec.LoadReportEvery},
		Policy:        pol,
		TraceCap:      spec.TraceCap,
	})
	if err != nil {
		return zero, err
	}

	// Per-machine job logs: each slot is written only by its machine's
	// shard goroutine, so parallel rounds stay race-free and the merged
	// log is rebuilt in deterministic machine order afterwards.
	jobs := make([][]jobRec, spec.Machines+1)
	startArrivals(c, &spec.Workload, jobs)

	// Communication pipelines: chatter on src, sink halfway around.
	for p := 0; p < spec.Pipelines; p++ {
		src := p%spec.Machines + 1
		dst := (p+spec.Machines/2)%spec.Machines + 1
		if src == dst {
			dst = dst%spec.Machines + 1
		}
		sink, err := c.Spawn(dst, kernel.SpawnSpec{Body: &workload.Sink{}})
		if err != nil {
			return zero, err
		}
		gap := spec.PipelineGap
		if gap <= 0 {
			gap = 1000
		}
		chatter, err := c.Spawn(src, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: spec.PipelineMsgs, Interval: uint32(gap)},
			Links: []link.Link{{Addr: addr.At(sink, addr.MachineID(dst))}},
		})
		if err != nil {
			return zero, err
		}
		jobs[src] = append(jobs[src], jobRec{pid: chatter, at: 0})
	}

	c.RunFor(spec.Horizon)
	if spec.Observe != nil {
		spec.Observe(c)
	}

	// Completion latencies.
	var lats []sim.Time
	m := zero
	for machine := 1; machine <= spec.Machines; machine++ {
		for _, j := range jobs[machine] {
			e, _, ok := c.ExitOf(j.pid)
			if !ok {
				m.JobsUnfinished++
				continue
			}
			m.JobsFinished++
			lats = append(lats, e.At-j.at)
			if e.At > m.Makespan {
				m.Makespan = e.At
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		m.P50Latency = lats[n/2]
		p99 := n * 99 / 100
		if p99 >= n {
			p99 = n - 1
		}
		m.P99Latency = lats[p99]
	}

	net := c.NetStats()
	m.CrossUserFrames = net.ByKind[msg.KindUser]
	m.CrossUserBytes = net.BytesByKind[msg.KindUser]

	pm := c.PM()
	m.PolicySweeps = pm.PolicySweeps
	m.PolicyDecisions = pm.PolicyDecisions
	m.MigrationsOrdered = pm.MigrationsOrdered

	for _, rec := range c.Ledger().Records() {
		if !rec.OK {
			continue
		}
		m.MigrationsDone++
		m.FreezePaid += rec.FreezeMicros()
		m.AdminBytesPaid += uint64(rec.AdminBytes)
		m.ForwardsAbsorbed += rec.ForwardsAbsorbed
	}

	stats := c.Stats()
	var busy []float64
	var total float64
	for machine := 1; machine <= spec.Machines; machine++ {
		b := float64(stats.PerKernel[addr.MachineID(machine)].CPUBusy)
		busy = append(busy, b)
		total += b
	}
	if mean := total / float64(len(busy)); mean > 0 {
		var varsum float64
		for _, b := range busy {
			d := b - mean
			varsum += d * d
		}
		m.LoadStddevMilli = uint64(math.Sqrt(varsum/float64(len(busy))) * 1000 / mean)
	}
	return m, nil
}
