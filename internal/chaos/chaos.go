// Package chaos is the deterministic fault-injection plane for a composed
// cluster. An Injector drives the failure modes the paper's protocol must
// survive — processor crashes at every migration kill-point (§3.1),
// network partitions, loss bursts, duplicate and delayed frames — from its
// own seeded PRNGs, so the same seed replays the exact same fault schedule
// regardless of how much randomness the simulation itself consumes, on any
// shard count, sequential or ShardParallel. The companion invariant checker
// (invariants.go) audits the cluster after quiescence.
//
// Every fault's state lives on the shard that enforces it:
//
//   - Lockstep pulse replicas. Each pulse family gets one PRNG stream per
//     shard, all seeded identically (cfg.Seed + a family offset), and each
//     shard arms its own replica chain via AfterWeakFault on its own
//     engine. Every replica draws the same victims at the same sim times;
//     a shard applies only the slice of the fault it enforces. Fault-class
//     events sort before gate pumps and normal events at equal timestamps,
//     so "fault state armed at t applies to every send and arrival at t"
//     holds for every shard count.
//   - Per-shard partition mirrors. Every replica maintains its shard's
//     view of which pairs are open, so already-open guards evaluate
//     identically everywhere; the netw-level Partition/Heal is applied
//     only by the shards owning an endpoint of the pair.
//   - Machine-anchored kill rotation. Kill-point rotation state is per
//     machine (cursor seeded (m-1) % |kill points|, a fair share of
//     MaxKills as budget), so the decision at a hook firing touches only
//     the machine's own shard. KillEvery is per-machine spacing.
//   - Per-shard fault logs, merged by (time, machine) into one canonical
//     trace. Each entry is attributed to exactly one machine and written
//     by exactly one shard, so the merged order is total and identical
//     across shard counts — the matrix tests pin this byte for byte.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/sim"
)

// Config shapes a fault schedule. The zero value injects nothing; every
// pulse family is enabled by setting its Every interval.
type Config struct {
	// Seed drives the injector's private PRNG streams (one per pulse
	// family).
	Seed int64

	// MaxKills bounds processor crashes fired at migration kill-points,
	// shared out evenly over the machines. Each machine rotates through
	// all eight kill-points in order (starting at a different one), so a
	// long enough run crashes a kernel at every stage of the protocol.
	MaxKills int
	// RestartAfter is how long a killed kernel stays down before the
	// injector restarts it (default 250_000).
	RestartAfter sim.Time
	// KillAfter delays the first kill, giving checkpoint pulses time to
	// populate stable storage — a crash before any checkpoint wipes a
	// machine's processes beyond recovery (the paper's §1 point: stable
	// storage is what makes crash "migration" possible at all).
	KillAfter sim.Time
	// KillEvery is the minimum spacing between kills of one machine (a
	// cluster-wide spacing would need cross-shard clock reads). Without
	// it, back-to-back migrations let the rotation crash a machine again
	// the moment it restarts, and it spends the run dead instead of
	// recovering.
	KillEvery sim.Time

	// PartitionEvery opens a pairwise partition roughly that often;
	// each heals after PartitionFor (default 40_000).
	PartitionEvery sim.Time
	PartitionFor   sim.Time

	// BurstEvery raises the loss rate to BurstRate (default 0.5) for
	// BurstFor (default 30_000).
	BurstEvery sim.Time
	BurstFor   sim.Time
	BurstRate  float64

	// DupEvery arms a duplicate of the next frame between a random
	// machine pair. Only honoured on lossy (ARQ) networks, where the
	// receiver's dedup table preserves at-most-once delivery; on a
	// lossless network a wire duplicate would be delivered twice.
	DupEvery sim.Time
	// DelayEvery holds the next frame between a random pair back by
	// DelayExtra (default 2_500), reordering it past later traffic.
	DelayEvery sim.Time
	DelayExtra sim.Time

	// CheckpointEvery snapshots live processes to their kernel's stable
	// storage so a later Restart can revive them. Only processes with an
	// empty message queue are taken: checkpoints do not include queued
	// messages, so an empty-queue snapshot can never replay a delivery
	// (keeping the at-most-once audit strict).
	CheckpointEvery sim.Time
	// CheckpointFilter, when set, restricts which processes are
	// checkpointed (e.g. to keep system processes out of revival).
	CheckpointFilter func(kernel.ProcInfo) bool
}

// Per-family PRNG seed offsets: each family's replicas share one stream
// shape across all shards of all shard counts.
const (
	seedPartition = 1 + iota
	seedBurst
	seedDup
	seedDelay
	seedCheckpoint
)

// killState is one machine's private kill rotation.
type killState struct {
	cursor   int // index into kernel.KillPoints(), starts at (m-1) % len
	misses   int
	kills    int
	budget   int // this machine's share of cfg.MaxKills
	lastKill sim.Time
}

// chaosEntry is one fault-log line before merging: time, the machine the
// fault is attributed to, and the rendered text.
type chaosEntry struct {
	t sim.Time
	m int
	s string
}

// Injector schedules faults against one cluster. All scheduling happens on
// the cluster's engines, so fault timing is part of the deterministic event
// order; the injector's own PRNGs only pick victims and intervals.
type Injector struct {
	c   *core.Cluster
	cfg Config

	stopped bool
	open    []map[[2]int]bool          // per-shard partition mirrors (lockstep)
	kill    []killState                // per machine, indexed by machine id
	kills   []int                      // crashes fired, per shard
	counts  []map[kernel.KillPoint]int // kill-point tallies, per shard
	logs    [][]chaosEntry             // fault log, per shard
}

// missLimit is how many non-matching kill-point firings a machine's
// rotation tolerates before advancing its cursor. It rescues a run whose
// workload can no longer reach the targeted stage (e.g. migrations dried
// up) without costing coverage in a healthy run.
const missLimit = 256

// New installs fault hooks on every kernel, shares the kill budget out over
// the machines, and arms every shard's replica of the configured pulse
// families. Pulses are weak events: they never keep the engines alive, so a
// driver can simply Run() to quiescence. Heals ride along as weak events
// too (Stop sweeps up any partition left behind); restarts are strong, so
// a killed kernel always comes back.
func New(c *core.Cluster, cfg Config) *Injector {
	if cfg.RestartAfter <= 0 {
		cfg.RestartAfter = 250_000
	}
	if cfg.PartitionFor <= 0 {
		cfg.PartitionFor = 40_000
	}
	if cfg.BurstFor <= 0 {
		cfg.BurstFor = 30_000
	}
	if cfg.BurstRate <= 0 {
		cfg.BurstRate = 0.5
	}
	if cfg.DelayExtra <= 0 {
		cfg.DelayExtra = 2_500
	}
	shards := c.Shards()
	inj := &Injector{
		c:      c,
		cfg:    cfg,
		open:   make([]map[[2]int]bool, shards),
		kill:   make([]killState, c.Machines()+1),
		kills:  make([]int, shards),
		counts: make([]map[kernel.KillPoint]int, shards),
		logs:   make([][]chaosEntry, shards),
	}
	kps := len(kernel.KillPoints())
	per, rem := cfg.MaxKills/c.Machines(), cfg.MaxKills%c.Machines()
	for m := 1; m <= c.Machines(); m++ {
		m := m
		ks := &inj.kill[m]
		ks.cursor = (m - 1) % kps
		ks.budget = per
		if m <= rem {
			ks.budget++
		}
		c.Kernel(m).SetFaultHook(func(kp kernel.KillPoint, pid addr.ProcessID) {
			inj.maybeKill(m, kp, pid)
		})
	}
	for s := 0; s < shards; s++ {
		inj.open[s] = make(map[[2]int]bool)
		inj.counts[s] = make(map[kernel.KillPoint]int)
		inj.arm(s, seedPartition, cfg.PartitionEvery, "chaos:partition", inj.partitionPulse)
		inj.arm(s, seedBurst, cfg.BurstEvery, "chaos:burst", inj.burstPulse)
		if c.NetLossy() {
			inj.arm(s, seedDup, cfg.DupEvery, "chaos:dup", inj.dupPulse)
		}
		inj.arm(s, seedDelay, cfg.DelayEvery, "chaos:delay", inj.delayPulse)
		inj.arm(s, seedCheckpoint, cfg.CheckpointEvery, "chaos:checkpoint", inj.checkpointPulse)
	}
	return inj
}

// arm starts shard s's replica of one pulse family on a fresh stream seeded
// cfg.Seed + family: every shard draws the identical sequence.
func (inj *Injector) arm(s int, family int64, every sim.Time, name string, fn func(s int, rng *rand.Rand)) {
	inj.rearm(s, rand.New(rand.NewSource(inj.cfg.Seed+family)), every, name, fn)
}

// rearm schedules shard s's next replica firing of one pulse family, as a
// weak fault-class event on s's own engine; each pulse re-arms itself.
// Intervals jitter in [every/2, every*3/2) off the family's per-shard
// stream, so replicas fire in lockstep.
func (inj *Injector) rearm(s int, rng *rand.Rand, every sim.Time, name string, fn func(s int, rng *rand.Rand)) {
	if every <= 0 {
		return
	}
	d := every/2 + sim.Time(rng.Int63n(int64(every)))
	inj.c.EngineOfShard(s).AfterWeakFault(d, name, func() {
		if inj.stopped {
			return
		}
		fn(s, rng)
		inj.rearm(s, rng, every, name, fn)
	})
}

// Stop freezes the schedule: no further kills or pulses, and every
// partition the injector opened is healed. Restarts already scheduled for
// killed kernels still fire, so a subsequent Run() reaches a fully-up
// cluster. Call it between runs: every shard's partition mirror is
// identical at a barrier, and the cluster-level Heal fan-out is safe
// outside a round.
func (inj *Injector) Stop() {
	inj.stopped = true
	keys := make([][2]int, 0, len(inj.open[0]))
	for k := range inj.open[0] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, key := range keys {
		for s := range inj.open {
			delete(inj.open[s], key)
		}
		a, b := key[0], key[1]
		inj.c.Heal(addr.MachineID(a), addr.MachineID(b))
		inj.logf(inj.c.ShardOf(a), inj.c.EngineOf(a).Now(), a, "heal %d-%d (stop)", a, b)
	}
}

// Kills reports how many processor crashes fired.
func (inj *Injector) Kills() int {
	total := 0
	for _, n := range inj.kills {
		total += n
	}
	return total
}

// logf appends one attributed entry to shard s's fault log. Only shard s's
// goroutine writes logs[s], so parallel rounds never race here.
func (inj *Injector) logf(s int, t sim.Time, m int, format string, args ...any) {
	inj.logs[s] = append(inj.logs[s], chaosEntry{t: t, m: m, s: fmt.Sprintf(format, args...)})
}

// pickPair draws a machine pair from a replica stream. Both draws always
// happen so every shard's stream stays aligned.
func pickPair(rng *rand.Rand, n int) (int, int) {
	return 1 + rng.Intn(n), 1 + rng.Intn(n)
}

func (inj *Injector) partitionPulse(s int, rng *rand.Rand) {
	a, b := pickPair(rng, inj.c.Machines())
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	if inj.open[s][key] {
		return
	}
	inj.open[s][key] = true
	// Sends a->b are checked on a's shard and acks on b's: only those
	// shards hold netw-level partition state for the pair.
	owns := inj.c.ShardOf(a) == s || inj.c.ShardOf(b) == s
	if owns {
		inj.c.NetworkOfShard(s).Partition(addr.MachineID(a), addr.MachineID(b))
	}
	eng := inj.c.EngineOfShard(s)
	if inj.c.ShardOf(a) == s {
		inj.logf(s, eng.Now(), a, "partition %d-%d", a, b)
	}
	eng.AfterWeakFault(inj.cfg.PartitionFor, "chaos:heal", func() {
		if !inj.open[s][key] {
			return // already healed (by Stop's sweep)
		}
		delete(inj.open[s], key)
		if owns {
			inj.c.NetworkOfShard(s).Heal(addr.MachineID(a), addr.MachineID(b))
		}
		if inj.c.ShardOf(a) == s {
			inj.logf(s, eng.Now(), a, "heal %d-%d", a, b)
		}
	})
}

func (inj *Injector) burstPulse(s int, rng *rand.Rand) {
	// Every shard originates sends and receives acks, so every replica
	// applies the burst locally; replicas fire at identical times, so the
	// `until` horizons agree. Attributed to machine 0 (cluster-wide).
	eng := inj.c.EngineOfShard(s)
	until := eng.Now() + inj.cfg.BurstFor
	inj.c.NetworkOfShard(s).LossBurst(inj.cfg.BurstRate, until)
	if s == 0 {
		inj.logf(0, eng.Now(), 0, "burst rate=%.2f until=%d", inj.cfg.BurstRate, until)
	}
}

func (inj *Injector) dupPulse(s int, rng *rand.Rand) {
	a, b := pickPair(rng, inj.c.Machines())
	if a == b {
		return
	}
	// One-shot injections live on the sending machine's shard only.
	if inj.c.ShardOf(a) != s {
		return
	}
	inj.c.NetworkOfShard(s).DuplicateNext(addr.MachineID(a), addr.MachineID(b), 1)
	inj.logf(s, inj.c.EngineOfShard(s).Now(), a, "dup-next %d->%d", a, b)
}

func (inj *Injector) delayPulse(s int, rng *rand.Rand) {
	a, b := pickPair(rng, inj.c.Machines())
	if a == b {
		return
	}
	if inj.c.ShardOf(a) != s {
		return
	}
	inj.c.NetworkOfShard(s).DelayNext(addr.MachineID(a), addr.MachineID(b), inj.cfg.DelayExtra)
	inj.logf(s, inj.c.EngineOfShard(s).Now(), a, "delay-next %d->%d +%d", a, b, inj.cfg.DelayExtra)
}

func (inj *Injector) checkpointPulse(s int, rng *rand.Rand) {
	// Each shard checkpoints the machines it hosts. Logged per machine so
	// the merged trace is shard-count-invariant.
	eng := inj.c.EngineOfShard(s)
	for m := 1; m <= inj.c.Machines(); m++ {
		if inj.c.ShardOf(m) != s {
			continue
		}
		k := inj.c.Kernel(m)
		if k.Crashed() {
			continue
		}
		saved := 0
		for _, info := range k.Processes() {
			if info.State == kernel.StateForwarder || info.QueueLen != 0 {
				continue
			}
			if inj.cfg.CheckpointFilter != nil && !inj.cfg.CheckpointFilter(info) {
				continue
			}
			if err := k.SaveCheckpoint(info.PID); err == nil {
				saved++
			}
		}
		if saved > 0 {
			inj.logf(s, eng.Now(), m, "checkpoint m=%d saved=%d", m, saved)
		}
	}
}

// maybeKill is the fault hook: it fires inside a kernel's migration
// handler at a named kill-point and decides whether that kernel dies right
// there. The decision is a pure function of the rotation state — no PRNG —
// so kill placement depends only on simulation order, and it reads and
// writes only machine m's rotation state, m's kernel, and m's shard's log —
// all owned by the shard the hook fired on.
func (inj *Injector) maybeKill(m int, kp kernel.KillPoint, pid addr.ProcessID) {
	ks := &inj.kill[m]
	eng := inj.c.EngineOf(m)
	if inj.stopped || ks.kills >= ks.budget || eng.Now() < inj.cfg.KillAfter {
		return
	}
	if ks.kills > 0 && eng.Now() < ks.lastKill+inj.cfg.KillEvery {
		return
	}
	k := inj.c.Kernel(m)
	if k.Crashed() {
		return
	}
	kps := kernel.KillPoints()
	if kp != kps[ks.cursor%len(kps)] {
		if ks.misses++; ks.misses > missLimit {
			ks.misses = 0
			ks.cursor++
		}
		return
	}
	ks.kills++
	ks.cursor++
	ks.misses = 0
	ks.lastKill = eng.Now()
	s := inj.c.ShardOf(m)
	inj.kills[s]++
	inj.counts[s][kp]++
	inj.logf(s, eng.Now(), m, "kill m=%d kp=%s pid=%v", m, kp, pid)
	k.Crash()
	eng.After(inj.cfg.RestartAfter, "chaos:restart", func() {
		if !k.Crashed() {
			return
		}
		if err := k.Restart(); err == nil {
			inj.logf(s, eng.Now(), m, "restart m=%d", m)
		}
	})
}
