// Streaming open-loop workload: seeded Poisson arrivals with bimodal
// service times, generated lazily so a million-process run never
// materializes its processes up front — each machine holds one arrival
// cursor and spawns the next job only when its arrival time comes due.
// (The paper had no authentic workload; an open-loop arrival process is the
// standard stand-in, and the bimodal service mix keeps both short-lived and
// long-lived processes in the system at once.)
package workload

import (
	"math"

	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// OpenLoop configures the generator. The zero value is not useful; fill in
// at least MeanGap and PerMachine.
type OpenLoop struct {
	// Seed drives every machine's private arrival/service stream.
	// Machines derive independent substreams, so two machines' sequences
	// never correlate and a machine's sequence does not depend on how the
	// cluster is sharded.
	Seed int64
	// MeanGap is the mean interarrival time per machine in simulated
	// microseconds (exponential, i.e. Poisson arrivals).
	MeanGap sim.Time
	// ShortService and LongService are the two service-time modes; each
	// job draws LongService with probability LongFraction.
	ShortService sim.Time
	LongService  sim.Time
	LongFraction float64
	// PerMachine is how many jobs each machine receives over the run. The
	// stream ends after this many arrivals, bounding "run until idle".
	PerMachine int

	// WaveAmp and WavePeriod superimpose a diurnal load wave: the
	// effective arrival rate swings by ±WaveAmp (0 < WaveAmp < 1) over
	// each WavePeriod. WaveSpread staggers machine phases so the wave
	// rolls around the cluster — machine m leads by m mod WaveSpread
	// spread-fractions of a period (0 or 1 keeps every machine in phase).
	WaveAmp    float64
	WavePeriod sim.Time
	WaveSpread int

	// HotEvery and HotFactor skew load: every HotEvery-th machine
	// (machine % HotEvery == 0) receives HotFactor× the arrival rate,
	// giving balancing policies a persistent imbalance to fix. 0 disables.
	HotEvery  int
	HotFactor float64

	// Spin makes jobs CPU-bound Spinners instead of timer-driven Jobs:
	// each job burns its service demand as real quantum budget, so load
	// reports show genuine CPU%/queue-depth pressure. This is the mode
	// the migration policies are evaluated under.
	Spin bool
}

// rng64 is a splitmix64 generator. The simulation's determinism lint
// forbids math/rand outside the engine, and the engine's PRNG cannot be
// used here anyway: workload draws must come from a private stream so the
// sequence is independent of event execution order (and of shard count).
type rng64 struct{ s uint64 }

func (r *rng64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng64) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Arrivals streams one machine's arrival sequence: absolute arrival times
// with exponential gaps and a bimodal service draw per job. Construction is
// O(1) and each Next is O(1) — the whole point is that nothing about the
// run's length is materialized. Every machine's stream reads one shared
// config.
type Arrivals struct {
	cfg     *OpenLoop
	rng     rng64
	at      sim.Time
	emitted int
	boost   float64 // hot-machine rate multiplier (1 = nominal)
	phase   float64 // this machine's diurnal phase offset, radians
}

// NewArrivals returns machine m's private arrival stream over cfg. It fills
// cfg's zero fields with their defaults in place (a no-op on a filled
// config) and keeps the pointer, so the streams of every machine share one
// config, which must not change while they are live.
func NewArrivals(cfg *OpenLoop, machine int) Arrivals {
	if cfg.MeanGap == 0 {
		cfg.MeanGap = 1000
	}
	if cfg.ShortService == 0 {
		cfg.ShortService = 200
	}
	if cfg.LongService == 0 {
		cfg.LongService = 5000
	}
	if cfg.WaveAmp > 0.9 {
		cfg.WaveAmp = 0.9 // keep the modulated rate strictly positive
	}
	a := Arrivals{cfg: cfg, boost: 1}
	if cfg.HotEvery > 0 && cfg.HotFactor > 0 && machine%cfg.HotEvery == 0 {
		a.boost = cfg.HotFactor
	}
	if cfg.WaveSpread > 1 {
		a.phase = 2 * math.Pi * float64(machine%cfg.WaveSpread) / float64(cfg.WaveSpread)
	}
	// Substream split: hash the seed with the machine id through one
	// splitmix step so adjacent machines land in unrelated regions.
	a.rng.s = uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(machine)*0xda942042e4dd58b5
	return a
}

// Next returns the next job's absolute arrival time and service demand.
// ok is false once PerMachine jobs have been emitted.
func (a *Arrivals) Next() (at, service sim.Time, ok bool) {
	if a.emitted >= a.cfg.PerMachine {
		return 0, 0, false
	}
	a.emitted++
	mean := float64(a.cfg.MeanGap) / a.boost
	if a.cfg.WaveAmp > 0 && a.cfg.WavePeriod > 0 {
		// The wave's rate multiplier is evaluated at the previous
		// arrival's clock — a pure function of this stream's own
		// history, so it cannot depend on shard count.
		frac := float64(a.at%a.cfg.WavePeriod) / float64(a.cfg.WavePeriod)
		mean /= 1 + a.cfg.WaveAmp*math.Sin(2*math.Pi*frac+a.phase)
	}
	u := a.rng.float64()
	gap := sim.Time(-mean * math.Log(1-u))
	if gap < 1 {
		gap = 1
	}
	a.at += gap
	service = a.cfg.ShortService
	if a.rng.float64() < a.cfg.LongFraction {
		service = a.cfg.LongService
	}
	return a.at, service, true
}

// JobKind is the registry name of Job.
const JobKind = "wl-job"

// Job is the open-loop task body: it occupies its machine for Service
// simulated microseconds (timer-driven) and exits. Deliberately minimal —
// the scale scenario measures runtime throughput, not workload logic.
//
// A Job keeps no state but its service time, and Step never writes it, so
// any number of processes may share one body (the open-loop driver hands
// every job of one service time the same one). The rule is Chatter's for
// its first tick: a step that finds the queue empty arms the timer, and
// the timer's delivery ends the job. A job never returns Runnable, and a
// kernel wakes a blocked process only with a delivery, so a job's queue is
// empty at a step only when it was spawned or put back on the run queue
// as Ready (a migration or resume of a job that had not yet run): it arms
// exactly one timer.
type Job struct {
	Service sim.Time
}

// Kind implements proc.Body.
func (j *Job) Kind() string { return JobKind }

// Step implements proc.Body.
func (j *Job) Step(ctx proc.Context, budget int) (int, proc.Status) {
	service := max(j.Service, 1)
	for {
		d, ok := ctx.Recv()
		if !ok {
			ctx.SetTimer(service, 1)
			return 0, proc.Status{State: proc.Blocked}
		}
		// The job's PID is never published, so the only kernel-op
		// delivery it can receive is its own timer firing.
		if d.Op != 0 {
			return 0, proc.Status{State: proc.Exited, ExitCode: int32(service)}
		}
	}
}

// Snapshot implements proc.Body.
func (j *Job) Snapshot() ([]byte, error) { return proc.Snapshot(j) }

// Restore implements proc.Body.
func (j *Job) Restore(data []byte) error { return proc.Restore(j, data) }

// SpinnerKind is the registry name of Spinner.
const SpinnerKind = "wl-spinner"

// Spinner is a CPU-bound task: it burns Work instructions of real quantum
// budget and exits. Unlike Job (timer-driven, costs the CPU nothing) a
// Spinner occupies the run queue and accumulates CPU time, so it shows up
// in load reports exactly the way the migration policies need — CPU%,
// ready-queue depth and per-process CPUMicros all move. It is migratable
// mid-burn: Work is its entire state.
type Spinner struct {
	Work int // instructions remaining
}

// Kind implements proc.Body.
func (s *Spinner) Kind() string { return SpinnerKind }

// Step implements proc.Body.
func (s *Spinner) Step(ctx proc.Context, budget int) (int, proc.Status) {
	// Drain (and ignore) anything delivered; a spinner only computes.
	for {
		if _, ok := ctx.Recv(); !ok {
			break
		}
	}
	if s.Work <= 0 {
		return 0, proc.Status{State: proc.Exited}
	}
	n := budget
	if n < 1 {
		n = 1
	}
	if n > s.Work {
		n = s.Work
	}
	s.Work -= n
	if s.Work <= 0 {
		return n, proc.Status{State: proc.Exited}
	}
	return n, proc.Status{State: proc.Runnable}
}

// Snapshot implements proc.Body.
func (s *Spinner) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Spinner) Restore(data []byte) error { return proc.Restore(s, data) }
