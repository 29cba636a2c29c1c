package chaos_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
	"demosmp/internal/simtest"
	"demosmp/internal/workload"
)

// soakParams sizes one chaos soak.
type soakParams struct {
	machines   int
	migrations int // migration attempts scheduled
	sends      int // sequence-stamped user messages
	maxKills   int
	chaosOn    bool
	lossy      bool
	shards     int  // 0 = default options (one shard)
	parallel   bool // ShardParallel: dense rounds run on goroutines
	// migrateSpan confines the migrating fleet (spawn sites, migration
	// destinations, and so the probe fan-out) to machines 1..span; zero
	// means the whole cluster. Large-cluster soaks use a small span so a
	// migration driver probe is O(span), not O(machines).
	migrateSpan int
	// ringFan, when set, adds background load once the kills have begun:
	// each of a machine's next ringFan neighbours (cyclically) sends a Sink
	// on it ringMsgs messages. A machine's simulated CPU handles about five
	// messages a millisecond, so it takes a couple of dozen busy machines
	// to make rounds dense enough for ShardParallel to run them on
	// goroutines.
	ringFan, ringMsgs int
}

// fullParams budgets 20 kills over 4 machines: five each, so machine 4's
// rotation — which starts at kill-point 3 — reaches the eighth (dst-cleanup)
// and every point fires on default options.
func fullParams() soakParams {
	return soakParams{machines: 4, migrations: 400, sends: 300, maxKills: 20, chaosOn: true, lossy: true}
}

func shortParams() soakParams {
	return soakParams{machines: 3, migrations: 40, sends: 80, maxKills: 8, chaosOn: true, lossy: true}
}

// ringAt is when the background ring starts: just after the injector's
// KillAfter, so the dense rounds and the kill-point crashes overlap.
const ringAt = 85_000

// soakResult is everything a determinism comparison needs.
type soakResult struct {
	fired       uint64
	now         sim.Time
	trace       []string
	kills       int
	killCounts  map[kernel.KillPoint]int
	migrations  uint64
	restarts    uint64
	lost        int // Σ LostPIDs: processes a crash wiped and no checkpoint revived
	seen        map[uint32]uint32
	recLost     bool
	violations  []string
	delivery    []string
	netFrames   uint64
	netStats    netw.Stats
	crashedLeft int
	parRounds   uint64 // rounds that ran on goroutines; not compared

	// Post-run obs exports, byte-for-byte comparable across same-seed
	// runs: the text metrics snapshot and the Chrome timeline JSON.
	// obsNorm is obsText with the per-kernel envelope-pool gauges removed —
	// how many envelopes a pool constructs depends on which envelopes cross
	// a shard and so come home only at the next round barrier, the one
	// legitimately shard-dependent corner of the snapshot (the
	// conservation law itself is audited per run by CheckRegistry), so
	// shard-count comparisons use obsNorm and same-config reruns use the
	// full obsText.
	obsText  []byte
	obsNorm  []byte
	timeline []byte

	// The quiescent cluster itself, for audits that need direct reads.
	cluster *core.Cluster
}

// runSoak builds a cluster, spawns a Recorder plus a movable fleet, drives
// migrations and a sequence-stamped message stream at it through stale
// addresses, lets the chaos injector crash/partition/burst throughout,
// then runs to quiescence and audits.
//
// The drivers are machine-anchored: every scheduled event fires on the
// engine of the machine whose state it touches, so the soak composes with
// ShardParallel and lands identically under every shard count. A migration
// is a probe fanned out to each machine in the fleet's span — the machine
// hosting the live copy (if any) requests the move on its own kernel.
func runSoak(t *testing.T, seed int64, p soakParams) soakResult {
	t.Helper()
	simtest.TwoProcs(t)
	ncfg := netw.Config{}
	if p.lossy {
		ncfg = netw.Config{LossRate: 0.04, RetransTimeout: 3000, MaxRetries: 200}
	}
	c, err := core.New(core.Options{
		Machines:      p.machines,
		Seed:          seed,
		Net:           ncfg,
		Shards:        p.shards,
		ShardParallel: p.parallel,
		// Generous trace ring so no shard's tracer wraps: merged trace and
		// timeline artifacts stay comparable across shard counts.
		TraceCap: 1 << 16,
		Kernel:   kernel.Config{MigrateTimeout: 400_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	span := p.machines
	if p.migrateSpan > 0 && p.migrateSpan < p.machines {
		span = p.migrateSpan
	}

	recPID, err := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	fleet := []addr.ProcessID{recPID}
	for i := 0; i < 6; i++ {
		pid, err := c.Spawn(1+i%span, kernel.SpawnSpec{Body: &workload.Null{}})
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, pid)
	}

	// The driver's randomness is its own stream, like the injector's, so
	// victim choice never depends on simulation-internal draws.
	rng := rand.New(rand.NewSource(seed + 1))
	var horizon sim.Time
	for i := 0; i < p.migrations; i++ {
		at := sim.Time(4_000 + i*6_000)
		victim := fleet[rng.Intn(len(fleet))]
		dest := 1 + rng.Intn(span)
		for m := 1; m <= span; m++ {
			m := m
			c.EngineOf(m).At(at, "drive:migrate", func() {
				if m == dest {
					return
				}
				k := c.Kernel(m)
				if k.Crashed() {
					return
				}
				info, ok := k.Process(victim)
				if !ok || info.State == kernel.StateForwarder {
					return
				}
				k.RequestMigrationOf(addr.At(victim, addr.MachineID(m)), addr.MachineID(dest))
			})
		}
		if at > horizon {
			horizon = at
		}
	}
	for i := 0; i < p.sends; i++ {
		at := sim.Time(3_000 + i*4_500)
		seq := uint32(i)
		src := addr.MachineID(1 + i%p.machines)
		c.EngineOf(int(src)).At(at, "drive:send", func() {
			body := []byte{byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24)}
			// Deliberately stale address: the recorder's birth machine,
			// however many migrations ago that was.
			c.Kernel(int(src)).GiveMessageTo(addr.At(recPID, 1), addr.KernelAddr(src), body)
		})
		if at > horizon {
			horizon = at
		}
	}

	if p.ringFan > 0 {
		for m := 1; m <= p.machines; m++ {
			sink, err := c.Spawn(m, kernel.SpawnSpec{Body: &workload.Sink{}})
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= p.ringFan; k++ {
				from := (m-1+k)%p.machines + 1
				to := link.Link{Addr: addr.At(sink, addr.MachineID(m))}
				c.EngineOf(from).At(ringAt, "drive:ring", func() {
					if k := c.Kernel(from); !k.Crashed() {
						k.Spawn(kernel.SpawnSpec{
							Body:  &workload.Chatter{N: p.ringMsgs, Interval: 100},
							Links: []link.Link{to},
						})
					}
				})
			}
		}
	}

	var inj *chaos.Injector
	if p.chaosOn {
		inj = chaos.New(c, chaos.Config{
			Seed:            seed + 7,
			MaxKills:        p.maxKills,
			RestartAfter:    60_000,
			KillAfter:       80_000,
			KillEvery:       60_000,
			PartitionEvery:  60_000,
			PartitionFor:    40_000,
			BurstEvery:      90_000,
			BurstFor:        30_000,
			BurstRate:       0.6,
			DupEvery:        45_000,
			DelayEvery:      35_000,
			DelayExtra:      2_000,
			CheckpointEvery: 30_000,
			// Keep system processes (PM-less here, but switchboard-free
			// boot still has none) out of revival; checkpoint only the
			// test's own fleet kinds.
			CheckpointFilter: func(info kernel.ProcInfo) bool {
				return info.Kind == workload.RecorderKind || info.Kind == workload.NullKind
			},
		})
	}

	// Phase 1: chaos active while the drivers fire.
	c.RunFor(horizon + 50_000)
	// Phase 2: freeze the fault schedule, heal leftovers, drain to
	// quiescence (pending restarts are strong events and still fire).
	if inj != nil {
		inj.Stop()
	}
	c.Run()

	res := soakResult{
		parRounds: c.ParallelRounds(),
		fired:     c.TotalFired(),
		now:       c.Now(),
		seen:      map[uint32]uint32{},
		cluster:   c,
	}
	if inj != nil {
		res.trace = inj.Trace()
		res.kills = inj.Kills()
		res.killCounts = inj.KillCounts()
	}
	for m := 1; m <= p.machines; m++ {
		ks := c.Kernel(m).Stats()
		res.migrations += ks.MigrationsOut
		res.restarts += ks.Restarts
		res.lost += len(c.Kernel(m).LostPIDs())
		if c.Kernel(m).Crashed() {
			res.crashedLeft++
		}
	}
	res.netStats = c.NetStats()
	res.netFrames = res.netStats.Frames

	res.recLost = true
	for m := 1; m <= p.machines; m++ {
		if b, ok := c.Kernel(m).BodyOf(recPID); ok {
			if r, ok2 := b.(*workload.Recorder); ok2 && r != nil {
				res.recLost = false
				for s, n := range r.Seen {
					res.seen[s] = n
				}
			}
		}
	}

	// Post-run obs snapshot: exported for the determinism comparison and
	// cross-checked against direct struct reads (including the envelope
	// conservation law re-derived purely from registry values).
	snap := c.ObsSnapshot()
	var sb, tb bytes.Buffer
	if err := snap.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	tl := obs.BuildTimeline(c.TraceRecords(), c.Ledger(), nil)
	if err := tl.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	res.obsText = sb.Bytes()
	res.obsNorm = stripPoolGauges(res.obsText)
	res.timeline = tb.Bytes()

	res.violations = chaos.CheckInvariants(c)
	res.violations = append(res.violations, chaos.CheckRegistry(c, snap)...)
	if !res.recLost {
		res.delivery = chaos.CheckDelivery(c, res.seen, uint32(p.sends))
	} else if !pidLost(c, recPID, p.machines) {
		res.violations = append(res.violations,
			fmt.Sprintf("recorder %v vanished without a crash-loss record", recPID))
	}
	return res
}

// stripPoolGauges removes the per-kernel envelope-pool gauge lines from a
// text metrics snapshot (see the obsNorm comment on soakResult).
func stripPoolGauges(text []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(text, []byte("\n")) {
		if bytes.Contains(line, []byte(".pool_")) {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

func pidLost(c *core.Cluster, pid addr.ProcessID, machines int) bool {
	for m := 1; m <= machines; m++ {
		for _, lost := range c.Kernel(m).LostPIDs() {
			if lost == pid {
				return true
			}
		}
		if ks := c.Kernel(m).Stats(); ks.CrashLostProcs > 0 {
			return true // lost pre-revival; LostPIDs cleared if later revived elsewhere
		}
	}
	return false
}

// TestChaosSoak is the headline acceptance run: crashes at migration
// kill-points, partitions, loss bursts, duplicates and delays — and at the
// end every invariant holds and every missing message is accounted for.
func TestChaosSoak(t *testing.T) {
	p := fullParams()
	if testing.Short() {
		p = shortParams()
	}
	res := runSoak(t, 4242, p)

	for _, v := range res.violations {
		t.Errorf("invariant violated: %s", v)
	}
	for _, v := range res.delivery {
		t.Errorf("delivery audit: %s", v)
	}
	if res.crashedLeft != 0 {
		t.Errorf("%d machines still crashed at quiescence (restarts lost?)", res.crashedLeft)
	}
	if res.kills == 0 {
		t.Fatalf("injector never fired a kill (migrations=%d)", res.migrations)
	}
	if res.restarts == 0 {
		t.Fatal("no kernel ever restarted")
	}
	if !testing.Short() {
		if res.migrations < 50 {
			t.Errorf("only %d completed migrations; want >= 50", res.migrations)
		}
		for _, kp := range kernel.KillPoints() {
			if res.killCounts[kp] == 0 {
				t.Errorf("kill-point %v never exercised (counts: %v)", kp, res.killCounts)
			}
		}
	}
	t.Logf("soak: t=%d fired=%d migrations=%d kills=%d restarts=%d lost=%d frames=%d recLost=%v",
		res.now, res.fired, res.migrations, res.kills, res.restarts, res.lost, res.netFrames, res.recLost)
}

// TestChaosSameSeedReproduces runs the identical fault schedule twice and
// demands bit-identical outcomes: same event count, same injector log,
// same delivery ledger, same aggregate stats.
func TestChaosSameSeedReproduces(t *testing.T) {
	p := shortParams()
	a := runSoak(t, 99, p)
	b := runSoak(t, 99, p)
	if a.fired != b.fired || a.now != b.now {
		t.Fatalf("engine diverged: fired %d/%d, now %d/%d", a.fired, b.fired, a.now, b.now)
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("injector trace diverged:\nA: %v\nB: %v", a.trace, b.trace)
	}
	if !reflect.DeepEqual(a.seen, b.seen) || a.recLost != b.recLost {
		t.Fatalf("delivery ledger diverged")
	}
	if a.migrations != b.migrations || a.restarts != b.restarts || a.kills != b.kills ||
		a.netFrames != b.netFrames {
		t.Fatalf("stats diverged: migrations %d/%d restarts %d/%d kills %d/%d frames %d/%d",
			a.migrations, b.migrations, a.restarts, b.restarts, a.kills, b.kills,
			a.netFrames, b.netFrames)
	}
}

// TestNoFaultStrict runs the same harness with the injector disabled on a
// lossless network: delivery must be exactly-once (zero missing, zero
// duplicates) and every invariant clean — the control arm proving the
// audits themselves aren't vacuous.
func TestNoFaultStrict(t *testing.T) {
	p := shortParams()
	p.chaosOn = false
	p.lossy = false
	p.maxKills = 0
	res := runSoak(t, 7, p)
	for _, v := range res.violations {
		t.Errorf("invariant violated: %s", v)
	}
	for _, v := range res.delivery {
		t.Errorf("delivery audit: %s", v)
	}
	if res.recLost {
		t.Fatal("recorder lost without faults")
	}
	var missing int
	for s := uint32(0); s < uint32(p.sends); s++ {
		if res.seen[s] == 0 {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d sequences missing in a no-fault run", missing)
	}
	if res.restarts != 0 || res.kills != 0 {
		t.Fatalf("faults fired in the no-fault arm: kills=%d restarts=%d", res.kills, res.restarts)
	}
}

// shardedParams is the base sharded soak configuration: lossy (the
// machine-anchored ARQ composes with sharding), the full
// crash/partition/burst/dup/delay schedule intact, 2 shards, sequential
// rounds by default. Every machine belongs to the migrating fleet, so every
// pair the injector partitions, duplicates or delays carries migration
// traffic. Four machines cannot make a round dense enough to run on
// goroutines (see ringFan): ShardParallel runs this one inline.
func shardedParams() soakParams {
	p := shortParams()
	p.shards = 2
	p.machines = 4
	return p
}

// denseParams is shardedParams with goroutine rounds: 24 machines, the
// migrating fleet and its two kills a machine still on machines 1..4, and
// an all-to-all ring that keeps every machine busy for some 140 ms from the
// first kill on, so a ShardParallel arm runs those 270-odd rounds on
// goroutines while kills, bursts and pair faults fire, and every pair the
// injector draws carries ring traffic.
func denseParams() soakParams {
	p := shardedParams()
	p.machines = 24
	p.migrateSpan = 4
	p.maxKills = 2 * p.machines
	p.ringFan, p.ringMsgs = p.machines-1, 25
	return p
}

// pairFaults counts, by kind, the injector's pair-targeted pulses in a
// trace whose two machines are both among 1..span.
func pairFaults(trace []string, span int) map[string]int {
	n := map[string]int{}
	for _, line := range trace {
		for kind, sep := range map[string]string{"partition": "-", "dup-next": "->", "delay-next": "->"} {
			var t, a, b int
			if c, _ := fmt.Sscanf(line, "t=%d "+kind+" %d"+sep+"%d", &t, &a, &b); c == 3 && a <= span && b <= span {
				n[kind]++
			}
		}
	}
	return n
}

// TestCheckDeliveryCountsEachLossOnce: a lossless partition abandons exactly
// one frame, so the loss budget is exactly one, and a ledger missing two
// sequences is a violation. Counting the abandoned frame in netw and again
// in the sender's kernel would budget two and hide the second gap.
func TestCheckDeliveryCountsEachLossOnce(t *testing.T) {
	c, err := core.New(core.Options{Machines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Spawn(2, kernel.SpawnSpec{Body: &workload.Recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	c.NetworkOfShard(0).Partition(1, 2)
	c.Kernel(1).GiveMessageTo(addr.At(rec, 2), addr.KernelAddr(1), []byte{0, 0, 0, 0})
	c.Run()
	if ns := c.NetStats(); ns.PartitionDropped != 1 || ns.Frames != 1 {
		t.Fatalf("PartitionDropped=%d Frames=%d, want one frame sent and abandoned", ns.PartitionDropped, ns.Frames)
	}
	if bad := chaos.CheckDelivery(c, map[uint32]uint32{}, 1); len(bad) != 0 {
		t.Fatalf("one sequence missing against one accounted loss: %v", bad)
	}
	if bad := chaos.CheckDelivery(c, map[uint32]uint32{}, 2); len(bad) != 1 {
		t.Fatalf("two sequences missing against one accounted loss reported %v, want one violation", bad)
	}
}

// assertShardInvariant compares every shard-count-invariant artifact of two
// soak runs: injector trace (merged across shards), delivery ledger, net
// stats, kill schedule, migration/restart totals, and the pool-gauge-
// normalized obs snapshot. TotalFired / final clock are NOT compared, for
// one reason only: the injector's pulse replicas legitimately scale with the
// shard count. Neither pump gates, frames crossing a shard, nor abandoned
// frames do: a pump counts one event per frame it lands, the ship path
// releases its pooled original at once, and an abandoned frame is released
// where it dies (TestShardFiredInvariance in internal/core pins all three).
func assertShardInvariant(t *testing.T, label string, base, got soakResult) {
	t.Helper()
	if !reflect.DeepEqual(base.trace, got.trace) {
		t.Errorf("%s: injector trace diverged from 1-shard base\nbase: %v\ngot:  %v",
			label, base.trace, got.trace)
	}
	if !reflect.DeepEqual(base.seen, got.seen) || base.recLost != got.recLost {
		t.Errorf("%s: delivery ledger diverged from 1-shard base", label)
	}
	if !reflect.DeepEqual(base.netStats, got.netStats) {
		t.Errorf("%s: net stats diverged\nbase: %+v\ngot:  %+v", label, base.netStats, got.netStats)
	}
	if base.kills != got.kills || !reflect.DeepEqual(base.killCounts, got.killCounts) {
		t.Errorf("%s: kill schedule diverged: kills %d/%d counts %v/%v",
			label, base.kills, got.kills, base.killCounts, got.killCounts)
	}
	if base.migrations != got.migrations || base.restarts != got.restarts {
		t.Errorf("%s: stats diverged: migrations %d/%d restarts %d/%d",
			label, base.migrations, got.migrations, base.restarts, got.restarts)
	}
	if !bytes.Equal(base.obsNorm, got.obsNorm) {
		t.Errorf("%s: normalized obs snapshot diverged from 1-shard base", label)
	}
}

// TestChaosSoakSharded is the shard-count invariance matrix: the same seed
// run on default options (Shards unset) and at 1, 2, and 4 shards,
// sequentially and in parallel, lossless and lossy, must produce the
// identical chaos outcome — same merged injector trace, same delivery
// ledger, same net stats, same kill schedule, same normalized obs snapshot.
// The 1-shard arm also audits invariants and delivery, so every compared
// arm inherits a clean bill. The matrix runs twice: on the four-machine
// fleet, where every pair fault lands on migration traffic, and on the
// dense cluster, where the parallel arms run their rounds on goroutines.
func TestChaosSoakSharded(t *testing.T) {
	for _, arm := range []struct {
		prefix string
		p      soakParams
	}{{"", shardedParams()}, {"dense/", denseParams()}} {
		for _, lossy := range []bool{false, true} {
			name := arm.prefix + "lossless"
			if lossy {
				name = arm.prefix + "lossy"
			}
			t.Run(name, func(t *testing.T) {
				p := arm.p
				p.lossy = lossy
				p.shards = 1
				base := runSoak(t, 4242, p)
				for _, v := range base.violations {
					t.Errorf("invariant violated: %s", v)
				}
				for _, v := range base.delivery {
					t.Errorf("delivery audit: %s", v)
				}
				if base.crashedLeft != 0 {
					t.Errorf("%d machines still crashed at quiescence", base.crashedLeft)
				}
				if base.kills == 0 {
					t.Fatalf("injector never fired a kill (migrations=%d)", base.migrations)
				}
				if base.restarts == 0 {
					t.Fatal("no kernel ever restarted")
				}
				if lossy && base.netStats.Dropped == 0 {
					t.Fatal("lossy arm dropped nothing — ARQ never exercised")
				}
				// Every machine pair carries traffic (migrations on the
				// fleet, the ring on the dense cluster), so each of these
				// pulses faulted live frames. Duplicates are an ARQ fault.
				n := pairFaults(base.trace, p.machines)
				if n["partition"] == 0 || n["delay-next"] == 0 || lossy && n["dup-next"] == 0 {
					t.Fatalf("pair faults in the trace: %v; want every kind", n)
				}
				// Default options are the one-shard runtime under another name:
				// identical down to the event count, the clock, the pool gauges
				// and the timeline.
				def := p
				def.shards = 0
				got := runSoak(t, 4242, def)
				assertShardInvariant(t, name+"/default-options", base, got)
				if got.fired != base.fired || got.now != base.now ||
					!bytes.Equal(got.obsText, base.obsText) || !bytes.Equal(got.timeline, base.timeline) {
					t.Errorf("%s/default-options: not bit-identical to Shards: 1 (fired %d/%d, now %d/%d)",
						name, got.fired, base.fired, got.now, base.now)
				}
				for _, shards := range []int{2, 4} {
					for _, par := range []bool{false, true} {
						q := p
						q.shards = shards
						q.parallel = par
						label := fmt.Sprintf("%s/shards=%d/parallel=%v", name, shards, par)
						got := runSoak(t, 4242, q)
						for _, v := range got.violations {
							t.Errorf("%s: invariant violated: %s", label, v)
						}
						assertShardInvariant(t, label, base, got)
						if want := par && p.ringFan > 0; want != (got.parRounds > 0) {
							t.Errorf("%s: %d rounds ran on goroutines", label, got.parRounds)
						}
					}
				}
				t.Logf("%s base: t=%d migrations=%d kills=%d restarts=%d frames=%d dropped=%d retrans=%d",
					name, base.now, base.migrations, base.kills, base.restarts,
					base.netStats.Frames, base.netStats.Dropped, base.netStats.Retransmits)
			})
		}
	}
}

// TestChaosShardedSameSeedReproduces pins bit-level determinism of the
// hardest configuration — lossy, 4 shards, parallel rounds, on the fleet
// and on the dense cluster: the same seed must reproduce the run exactly,
// down to the full obs snapshot (pool gauges included), the timeline JSON,
// the event count, and the clock.
func TestChaosShardedSameSeedReproduces(t *testing.T) {
	for _, p := range []soakParams{shardedParams(), denseParams()} {
		p.shards = 4
		p.parallel = true
		a := runSoak(t, 99, p)
		b := runSoak(t, 99, p)
		if p.ringFan > 0 && a.parRounds == 0 {
			t.Fatal("no round ran on goroutines; the hardest configuration was not exercised")
		}
		if a.fired != b.fired || a.now != b.now {
			t.Fatalf("engines diverged: fired %d/%d, now %d/%d", a.fired, b.fired, a.now, b.now)
		}
		if !reflect.DeepEqual(a.trace, b.trace) {
			t.Fatalf("injector trace diverged:\nA: %v\nB: %v", a.trace, b.trace)
		}
		if !reflect.DeepEqual(a.seen, b.seen) || a.recLost != b.recLost {
			t.Fatal("delivery ledger diverged")
		}
		if !reflect.DeepEqual(a.netStats, b.netStats) {
			t.Fatalf("net stats diverged:\nA: %+v\nB: %+v", a.netStats, b.netStats)
		}
		if !bytes.Equal(a.obsText, b.obsText) {
			t.Fatal("obs text export diverged between same-seed sharded runs")
		}
		if !bytes.Equal(a.timeline, b.timeline) {
			t.Fatal("timeline export diverged between same-seed sharded runs")
		}
	}
}

// TestShardChaosScale1000 is the acceptance soak: 1000 machines, 4 shards,
// parallel rounds, lossy links, partitions, loss bursts, duplicates,
// delays, and kill-point crashes covering all 8 migration kill-points —
// with every invariant, the delivery audit, and the registry cross-check
// holding at quiescence. In full mode a 2-shard rerun of the same seed
// must match the 4-shard run on every shard-count-invariant artifact.
func TestShardChaosScale1000(t *testing.T) {
	p := soakParams{
		machines:   1000,
		migrations: 300,
		sends:      200,
		maxKills:   16,
		chaosOn:    true,
		lossy:      true,
		shards:     4,
		parallel:   true,
		// Confine the migrating fleet to machines 1..16: with maxKills=16
		// the injector budgets one kill per fleet machine and the per-machine
		// kill-point cursors (m-1)%8 cover all 8 points.
		migrateSpan: 16,
		ringFan:     3,
		ringMsgs:    4,
	}
	if testing.Short() {
		p.migrations = 100
		p.sends = 100
	}
	res := runSoak(t, 20260808, p)
	if res.parRounds == 0 {
		t.Error("no round ran on goroutines; the soak did not exercise parallel shards")
	}
	for _, v := range res.violations {
		t.Errorf("invariant violated: %s", v)
	}
	for _, v := range res.delivery {
		t.Errorf("delivery audit: %s", v)
	}
	if res.crashedLeft != 0 {
		t.Errorf("%d machines still crashed at quiescence", res.crashedLeft)
	}
	if res.kills == 0 {
		t.Fatalf("injector never fired a kill (migrations=%d)", res.migrations)
	}
	if res.restarts == 0 {
		t.Fatal("no kernel ever restarted")
	}
	if res.netStats.Dropped == 0 || res.netStats.Retransmits == 0 {
		t.Fatalf("fault plane idle at scale: dropped=%d retransmits=%d",
			res.netStats.Dropped, res.netStats.Retransmits)
	}
	if !testing.Short() {
		for _, kp := range kernel.KillPoints() {
			if res.killCounts[kp] == 0 {
				t.Errorf("kill-point %v never exercised at scale (counts: %v)", kp, res.killCounts)
			}
		}
		q := p
		q.shards = 2
		q.parallel = false
		other := runSoak(t, 20260808, q)
		assertShardInvariant(t, "scale/shards=2", res, other)
	}
	t.Logf("scale soak: t=%d fired=%d (%d rounds on goroutines) migrations=%d kills=%d restarts=%d frames=%d dropped=%d retrans=%d",
		res.now, res.fired, res.parRounds, res.migrations, res.kills, res.restarts,
		res.netStats.Frames, res.netStats.Dropped, res.netStats.Retransmits)
}
