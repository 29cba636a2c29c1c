package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
	"demosmp/internal/simtest"
	"demosmp/internal/workload"
)

type shardSink struct{ n int }

func (s *shardSink) DeliverFrame(m *msg.Message) { s.n++ }

// TestShardHotPathZeroAlloc locks in the canonical delivery path's
// zero-allocation invariant: a lossless send to a shard-local machine
// (canonSend -> pendPush -> gate pump -> deliver) touches no allocator once
// the event arena and the calendar's are warm. This is the
// dynamic guard cited by the //demos:hotpath annotations in
// internal/netw/canon.go.
func TestShardHotPathZeroAlloc(t *testing.T) {
	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	nw.SetCanonical(2, 1,
		func(addr.MachineID) bool { return true },
		func(netw.RemoteFrame) {})
	nw.RegisterObs(obs.NewRegistry())
	nw.Attach(1, &shardSink{})
	sink := &shardSink{}
	nw.Attach(2, sink)
	m := &msg.Message{
		Kind: msg.KindUser,
		From: addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1),
		To:   addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2),
		Body: make([]byte, 32),
	}
	warm := func() {
		nw.Send(1, 2, m)
		for e.Step() {
		}
	}
	for i := 0; i < 64; i++ { // warm arena, calendar, counters
		warm()
	}
	before := sink.n
	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("canonical send+pump+deliver allocates %.1f/op, want 0", n)
	}
	if sink.n <= before {
		t.Fatal("frames were not delivered during the measurement")
	}
}

// TestShardOutboxZeroAlloc extends the pin across a shard boundary, through
// the cluster's own transport: an Echo pair on two shards sends every frame
// through the ship hook, the sender's outbox, the barrier's drain,
// EnqueueRemote and the receiving shard's pump, and every envelope back
// through the receiver's return pool and the barrier's SendHome. Once the
// outboxes, heaps and pools are warm a cross-shard frame allocates nothing:
// the pooled envelope itself crosses.
func TestShardOutboxZeroAlloc(t *testing.T) {
	c, run := echoPairScene(t, core.Options{Machines: 2, Shards: 2})
	c.RunFor(100_000) // warm the outboxes, calendars, arenas and pools
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("%.0f allocations for %d cross-shard frames, want 0", n, echoPerRun)
	}
}

// TestShardOutboxLossyAllocsLevelOff is the lossy arm of the pin above: at
// 5 % loss the ARQ's flight records, their bound retransmission checks and
// the wire copies are recycled, but a run that has more frames in flight at
// once than any before it still grows those stores to a new high-water
// mark, so allocations taper instead of stopping: six windows of 2 000 runs
// allocate 44, 7, 0, 0, 6, 0 times on one shard and 62, 9, 0, 5, 4, 0 on
// two. A store that leaked one record per run would allocate at least
// 2 000 times in every window, so the sixth must stay under 64.
func TestShardOutboxLossyAllocsLevelOff(t *testing.T) {
	const windows, runs, limit = 6, 2000, 64
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			c, run := echoPairScene(t, core.Options{Machines: 2, Shards: shards, Net: netw.Config{LossRate: 0.05}})
			c.RunFor(100_000)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var ms runtime.MemStats
			var per [windows]uint64
			for w := range per {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for i := 0; i < runs; i++ {
					run()
				}
				runtime.ReadMemStats(&ms)
				per[w] = ms.Mallocs - before
			}
			n1, _, _ := c.Kernel(1).PoolStats()
			n2, _, _ := c.Kernel(2).PoolStats()
			t.Logf("allocations per window of %d runs: %v; envelopes constructed: %d+%d", runs, per, n1, n2)
			if last := per[windows-1]; last >= limit {
				t.Errorf("window %d allocated %d times in %d runs of %d lossy frames, want < %d",
					windows, last, runs, echoPerRun, limit)
			}
		})
	}
}

// echoPerRun is the number of frames one run of echoPairScene carries.
const echoPerRun = 64

// echoPairScene builds an Echo pair across machines 1 and 2, starts it with
// one message, and returns the cluster and a run that advances it by
// exactly echoPerRun frames: an Echo sends one for every message it
// receives, and no lookahead window is long enough to hold two.
func echoPairScene(t *testing.T, o core.Options) (*core.Cluster, func()) {
	t.Helper()
	c, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &workload.Echo{}, &workload.Echo{}
	apid, err := c.Spawn(1, kernel.SpawnSpec{Body: a})
	if err != nil {
		t.Fatal(err)
	}
	bpid, err := c.Spawn(2, kernel.SpawnSpec{Body: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Kernel(1).MintLinkTo(link.Link{Addr: addr.At(bpid, 2)}, apid); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Kernel(2).MintLinkTo(link.Link{Addr: addr.At(apid, 1)}, bpid); err != nil {
		t.Fatal(err)
	}
	if err := c.Kernel(1).GiveMessage(apid, addr.At(bpid, 2), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	frames := func() int { return a.Rounds + b.Rounds }
	return c, func() {
		start := frames()
		for frames() < start+echoPerRun {
			c.RunFor(c.Lookahead())
		}
		if n := frames() - start; n != echoPerRun {
			t.Fatalf("%d frames crossed, want %d", n, echoPerRun)
		}
	}
}

// TestShardOutboxParallel is the race pin of the lock-free transport: three
// shards, a ring in which every shard ships to both others, rounds dense
// enough to run on goroutines — once lossless, and once lossy, where every
// data frame is answered by an ack shipped from inside the receiving
// shard's pump, so each outbox row carries both kinds. Every message must
// arrive exactly once and the counters must equal the inline run's;
// scripts/check.sh runs this under -race -count=10. Both ways the lookahead
// window is the network's one latency: acks travel at it too, so a lossy
// cluster needs no narrower window.
func TestShardOutboxParallel(t *testing.T) {
	simtest.TwoProcs(t)
	const machines, fan, n = 36, 4, 20
	for _, tc := range []struct {
		name string
		net  netw.Config
	}{
		{"lossless", netw.Config{}},
		{"lossy", netw.Config{LossRate: 0.05, RetransTimeout: 3000, MaxRetries: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(parallel bool) (netw.Stats, uint64) {
				c, err := core.New(core.Options{Machines: machines, Seed: 3, Shards: 3,
					ShardParallel: parallel, Net: tc.net})
				if err != nil {
					t.Fatal(err)
				}
				if w, want := c.Lookahead(), netw.DefaultConfig().Latency; w != want {
					t.Fatalf("lookahead = %d, want the latency %d", w, want)
				}
				sinks := spawnRing(t, c, machines, fan, n, 100)
				c.Run()
				for m, sink := range sinks {
					if got := len(sink.Got); got != fan*n {
						t.Fatalf("parallel=%v: machine %d's sink received %d messages, want exactly %d",
							parallel, m+1, got, fan*n)
					}
				}
				if c.InflightARQ() != 0 || c.PendingFrames() != 0 {
					t.Fatalf("parallel=%v: quiescent cluster still holds frames: inflight=%d pending=%d",
						parallel, c.InflightARQ(), c.PendingFrames())
				}
				return c.NetStats(), c.ParallelRounds()
			}
			seq, inline := run(false)
			par, onGoroutines := run(true)
			if inline != 0 || onGoroutines == 0 {
				t.Fatalf("rounds on goroutines: %d without ShardParallel, %d with; want 0 and some", inline, onGoroutines)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("network counters differ between inline and goroutine rounds:\n%+v\nvs\n%+v", seq, par)
			}
			if tc.net.LossRate > 0 && par.Retransmits == 0 {
				t.Error("lossy run retransmitted nothing; the ack path is untested")
			}
		})
	}
}

// TestShardFiredInvariance pins the event count across shard counts, which
// the benchmark hashes into every fingerprint. Sixteen Chatter->Sink pairs
// send in lockstep, so each instant's frames arrive together at sixteen
// receivers spread over every shard: one shard lands them from one
// netw:pump, four shards from four. A pump counts one event per frame it
// lands, so TotalFired and the final clock must not move between 1, 2 and 4
// shards, sequential or parallel, while the pumps actually fired do. In the
// same-shard arm each pair sits on one shard (16 machines apart); in the
// straddle arm its machines are 17 apart, so on 2 and 4 shards every frame
// takes the ship path, whose envelope goes home at the barrier, and fires no
// event a one-shard run lacks. In the faulty arm a lossless loss burst
// abandons every frame of the first sends, sixteen senders on every shard in
// the same instant: the network releases each where it dies, so abandoning
// frames fires no event either.
func TestShardFiredInvariance(t *testing.T) {
	simtest.TwoProcs(t)
	const pairs, n = 16, 60
	const burstEnd = 2_000 // a rate-1 burst until then abandons each sender's first sends
	type result struct {
		fired, pumps, parRounds, got, abandoned uint64
		now                                     sim.Time
	}
	run := func(t *testing.T, straddle, faulty bool, shards int, parallel bool) result {
		offset := pairs // receiver = sender + offset
		if straddle {
			offset++ // odd: a pair never shares a shard on 2 or 4 shards
		}
		c, err := core.New(core.Options{Machines: pairs + offset, Seed: 5, Shards: shards, ShardParallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		pumps := make([]uint64, c.Shards()) // one counter per engine: parallel rounds fire on goroutines
		for s := range pumps {
			c.EngineOfShard(s).OnFire = func(name string, _ sim.Time) {
				if name == "netw:pump" {
					pumps[s]++
				}
			}
		}
		if faulty {
			c.LossBurst(1, burstEnd)
		}
		var sinks []*workload.Sink
		for m := 1; m <= pairs; m++ {
			from, to := m, m+offset
			sink := &workload.Sink{}
			pid, err := c.Spawn(to, kernel.SpawnSpec{Body: sink})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Spawn(from, kernel.SpawnSpec{
				Body:  &workload.Chatter{N: n, Interval: 100},
				Links: []link.Link{{Addr: addr.At(pid, addr.MachineID(to))}},
			}); err != nil {
				t.Fatal(err)
			}
			sinks = append(sinks, sink)
		}
		c.Run()
		r := result{fired: c.TotalFired(), now: c.Now(), parRounds: c.ParallelRounds(),
			abandoned: c.NetStats().BurstDropped}
		for i, s := range sinks {
			if len(s.Got) != len(sinks[0].Got) || !faulty && len(s.Got) != n {
				t.Fatalf("shards=%d parallel=%v: sink %d received %d of %d (sink 0: %d)",
					shards, parallel, i, len(s.Got), n, len(sinks[0].Got))
			}
			r.got += uint64(len(s.Got))
		}
		if r.got+r.abandoned != pairs*n || faulty != (r.abandoned > 0) {
			t.Fatalf("shards=%d parallel=%v: %d delivered + %d abandoned of %d sent",
				shards, parallel, r.got, r.abandoned, pairs*n)
		}
		for _, p := range pumps {
			r.pumps += p
		}
		return r
	}
	for _, arm := range []struct {
		name             string
		straddle, faulty bool
	}{{"same-shard", false, false}, {"straddle", true, false}, {"faulty", false, true}} {
		t.Run(arm.name, func(t *testing.T) {
			base := run(t, arm.straddle, arm.faulty, 1, false)
			if base.pumps >= base.got {
				t.Fatalf("one shard fired %d pumps for %d frames: the frames never shared a gate", base.pumps, base.got)
			}
			for _, tc := range []struct {
				shards   int
				parallel bool
			}{{2, false}, {4, false}, {2, true}, {4, true}} {
				got := run(t, arm.straddle, arm.faulty, tc.shards, tc.parallel)
				if got.fired != base.fired || got.now != base.now || got.abandoned != base.abandoned {
					t.Errorf("shards=%d parallel=%v: TotalFired %d at %v with %d abandoned, one shard fired %d at %v with %d",
						tc.shards, tc.parallel, got.fired, got.now, got.abandoned, base.fired, base.now, base.abandoned)
				}
				if got.pumps <= base.pumps {
					t.Errorf("shards=%d: %d pumps fired, one shard fired %d: the receivers' instants were not split", tc.shards, got.pumps, base.pumps)
				}
				if tc.parallel && got.parRounds == 0 {
					t.Errorf("shards=%d: no round ran on goroutines; the parallel arm compared inline with inline", tc.shards)
				}
			}
		})
	}
}

// TestShardLossyAccepted pins that a lossy (ARQ) network composes with
// shards: the machine-anchored ARQ (netw/arq.go) made the old LossRate
// rejection obsolete. (The other old rejection, TraceSink, is now pinned
// the other way round: TestShardCountInvariance compares the sink's bytes
// across shard counts.)
func TestShardLossyAccepted(t *testing.T) {
	c, err := core.New(core.Options{Machines: 4, Shards: 2, Net: netw.Config{LossRate: 0.1}})
	if err != nil {
		t.Fatalf("lossy network rejected with shards: %v", err)
	}
	if !c.NetLossy() {
		t.Fatal("NetLossy() = false on a lossy sharded cluster")
	}
}

// TestClockRule pins the one clock rule for every shard count: RunFor
// leaves Now() and every engine's clock at exactly the target, work pending
// or not, and Run leaves them all at the last event fired.
func TestClockRule(t *testing.T) {
	var ends []sim.Time
	for _, shards := range []int{0, 1, 2} {
		c, err := core.New(core.Options{Machines: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Spawn(2, kernel.SpawnSpec{Program: workload.CPUBound(5000)}); err != nil {
			t.Fatal(err)
		}
		c.RunFor(3000)
		c.RunFor(500)
		for m := 1; m <= 2; m++ {
			if c.Now() != 3500 || c.EngineOf(m).Now() != 3500 {
				t.Fatalf("Shards %d: after RunFor(3000)+RunFor(500) Now()=%d, machine %d's engine reads %d; want 3500",
					shards, c.Now(), m, c.EngineOf(m).Now())
			}
		}
		if c.EngineOf(2).Pending() == 0 {
			t.Fatal("nothing pending at the RunFor target; the work-remains half is untested")
		}
		c.Run()
		for m := 1; m <= 2; m++ {
			if c.EngineOf(m).Now() != c.Now() {
				t.Fatalf("Shards %d: after Run() machine %d's engine reads %d, Now() is %d",
					shards, m, c.EngineOf(m).Now(), c.Now())
			}
		}
		ends = append(ends, c.Now())
	}
	if ends[0] != ends[1] || ends[1] != ends[2] || ends[0] <= 3500 {
		t.Fatalf("clock after Run() depends on the shard count: %v", ends)
	}
}

// shardRun is everything the shard-count invariance test compares: if ANY
// of these differ between shard counts, determinism is broken.
type shardRun struct {
	trace   string
	sink    string // everything Options.TraceSink received
	stats   netw.Stats
	metrics string
	exits   string
	spawned uint64
	now     sim.Time // the clock after Run(): the last event fired

	// parRounds is how many rounds ran on goroutines. It is not part of
	// the comparison: the parallel arms check that it is not zero.
	parRounds uint64
}

// same reports whether two runs agree on every compared artifact.
func (a shardRun) same(b shardRun) bool {
	return a.trace == b.trace && a.sink == b.sink && reflect.DeepEqual(a.stats, b.stats) &&
		a.metrics == b.metrics && a.exits == b.exits && a.spawned == b.spawned && a.now == b.now
}

// spawnRing puts a Sink on every machine and has each machine's next fan
// neighbours (cyclically) send it n messages, interval µs apart. Under
// round-robin placement a neighbour at a distance that is not a multiple of
// the shard count sits on another shard, so most frames cross a boundary,
// and with a few dozen machines the rounds are dense enough to run on
// goroutines under ShardParallel.
func spawnRing(t *testing.T, c *core.Cluster, machines, fan, n int, interval uint32) []*workload.Sink {
	t.Helper()
	sinks := make([]*workload.Sink, 0, machines)
	for m := 1; m <= machines; m++ {
		sink := &workload.Sink{}
		pid, err := c.Spawn(m, kernel.SpawnSpec{Body: sink})
		if err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, sink)
		for k := 1; k <= fan; k++ {
			if _, err := c.Spawn((m-1+k)%machines+1, kernel.SpawnSpec{
				Body:  &workload.Chatter{N: n, Interval: interval},
				Links: []link.Link{{Addr: addr.At(pid, addr.MachineID(m))}},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sinks
}

// runShardWorkload drives one fixed mixed workload — cross-machine chatter,
// a request/reply conversation, a streaming open-loop job mix, a scripted
// mid-stream migration, and a ring of chatter over all 48 machines that
// makes the rounds dense — on a cluster with the given shard count (0: the
// option left at its default), streaming its trace to a sink.
func runShardWorkload(t *testing.T, shards int, mut func(*core.Options)) shardRun {
	t.Helper()
	simtest.TwoProcs(t)
	var sink strings.Builder
	opts := core.Options{Machines: 48, Seed: 9, Shards: shards, Switchboard: true, TraceSink: &sink}
	if mut != nil {
		mut(&opts)
	}
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sink4, err := c.Spawn(4, kernel.SpawnSpec{Body: &workload.Sink{}})
	if err != nil {
		t.Fatal(err)
	}
	sink5, _ := c.Spawn(5, kernel.SpawnSpec{Body: &workload.Sink{}})
	chat1, _ := c.Spawn(1, kernel.SpawnSpec{
		Body:  &workload.Chatter{N: 40, Interval: 500},
		Links: []link.Link{{Addr: addr.At(sink4, 4)}},
	})
	chat2, _ := c.Spawn(2, kernel.SpawnSpec{
		Body:  &workload.Chatter{N: 25, Interval: 800},
		Links: []link.Link{{Addr: addr.At(sink5, 5)}},
	})
	server, _ := c.Spawn(3, kernel.SpawnSpec{Program: workload.EchoServer(30)})
	client, _ := c.Spawn(6, kernel.SpawnSpec{
		Program: workload.RequestClient(30),
		Links:   []link.Link{{Addr: addr.At(server, 3)}},
	})
	d := c.StartOpenLoop(workload.OpenLoop{
		Seed: 5, MeanGap: 900, PerMachine: 12, LongFraction: 0.25,
	})
	spawnRing(t, c, opts.Machines, 3, 20, 100)
	// Scripted migration mid-chatter: scheduled on machine 1's own engine,
	// so the trigger is machine-anchored and lands identically under every
	// sharding. The move crosses shards for every shards > 1.
	c.EngineOf(1).At(6000, "test:migrate", func() {
		c.Kernel(1).RequestMigrationOf(addr.At(chat1, 1), 3)
	})
	c.Run()

	var exits []string
	for _, pid := range []addr.ProcessID{chat1, chat2, client} {
		e, m, ok := c.ExitOf(pid)
		exits = append(exits, fmt.Sprintf("%v: code=%d m=%d ok=%v", pid, e.Code, m, ok))
	}

	// Per-kernel envelope-pool gauges are the one legitimately
	// shard-dependent corner of the snapshot: a same-shard frame's envelope
	// goes home the moment the receiver consumes it, a cross-shard frame's
	// only at the next round barrier, so how many envelopes a pool ever had
	// to construct depends on the sharding. The conservation law must still
	// hold within every configuration.
	snap := c.ObsSnapshot()
	var news, free, held uint64
	var rows []string
	for _, m := range snap.Metrics {
		switch {
		case strings.HasSuffix(m.Name, ".pool_news"):
			news += m.Value
		case strings.HasSuffix(m.Name, ".pool_free"):
			free += m.Value
		case strings.HasSuffix(m.Name, ".pool_held"):
			held += m.Value
		default:
			rows = append(rows, fmt.Sprintf("%+v", m))
		}
	}
	if news != free+held {
		t.Fatalf("%d shards: envelope conservation broken: news=%d != free=%d + held=%d",
			c.Shards(), news, free, held)
	}
	return shardRun{
		trace:   fmt.Sprint(c.TraceRecords()),
		sink:    sink.String(),
		now:     c.Now(),
		stats:   c.NetStats(),
		metrics: strings.Join(rows, "\n"),
		exits:   fmt.Sprint(exits),
		spawned: d.Spawned(),

		parRounds: c.ParallelRounds(),
	}
}

// TestOneWayTrafficKeepsPoolsBounded: messages flow one way, sender to
// receiver, and no envelope pool drifts. An envelope returns to the pool that
// constructed it (msg.Pool.Put forwards home, or from another shard parks it
// in the releasing shard's return pool until the barrier sends it home), so
// the sender's pool is refilled by the receiver's releases instead of
// constructing an envelope per message while the receiver's free list grows
// without bound; on a lossy network the ARQ's masters are the sender's
// envelopes and its wire copies come from the receiver's pool, or from the
// sender's when they cross a shard, and all go back. Every pool balances on
// its own, not just the cluster-wide sum. The parallel arms put the pairs
// across shards on enough machines that rounds run on goroutines, so the
// return pools are written while other shards run (scripts/check.sh runs
// them under -race).
func TestOneWayTrafficKeepsPoolsBounded(t *testing.T) {
	for _, arm := range []struct {
		name     string
		net      netw.Config
		shards   int
		parallel bool
	}{
		{"lossless", netw.Config{}, 1, false},
		{"lossy", netw.Config{LossRate: 0.05}, 1, false},
		{"lossless-2-shards", netw.Config{}, 2, false},
		{"lossy-2-shards", netw.Config{LossRate: 0.05}, 2, false},
		{"parallel/lossless-2-shards", netw.Config{}, 2, true},
		{"parallel/lossy-2-shards", netw.Config{LossRate: 0.05}, 2, true},
		{"parallel/lossless-4-shards", netw.Config{}, 4, true},
		{"parallel/lossy-4-shards", netw.Config{LossRate: 0.05}, 4, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			// One pair, 20 000 messages; or, to make rounds dense enough for
			// goroutines, 16 pairs of neighbours (never on one shard) with
			// 1 000 each.
			pairs, msgs := 1, 20_000
			if arm.parallel {
				simtest.TwoProcs(t)
				pairs, msgs = 16, 1_000
			}
			c, err := core.New(core.Options{Machines: 2 * pairs, Seed: 1, Shards: arm.shards,
				ShardParallel: arm.parallel, Net: arm.net})
			if err != nil {
				t.Fatal(err)
			}
			counters := make([]*workload.Counter, pairs)
			for i := range counters {
				from, to := 2*i+1, 2*i+2
				counters[i] = &workload.Counter{}
				sink, err := c.Spawn(to, kernel.SpawnSpec{Body: counters[i]})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Spawn(from, kernel.SpawnSpec{
					Body:  &workload.Chatter{N: msgs, Interval: 100},
					Links: []link.Link{{Addr: addr.At(sink, addr.MachineID(to))}},
				}); err != nil {
					t.Fatal(err)
				}
			}
			c.Run()
			for i, counter := range counters {
				if counter.Seen != msgs {
					t.Fatalf("pair %d: counter saw %d of %d messages", i, counter.Seen, msgs)
				}
			}
			if arm.net.LossRate > 0 && c.NetStats().Retransmits == 0 {
				t.Fatal("lossy arm saw no retransmission")
			}
			if arm.parallel && c.ParallelRounds() == 0 {
				t.Fatal("no round ran on goroutines; the parallel arm ran inline")
			}
			for m := 1; m <= c.Machines(); m++ {
				news, free, held := c.Kernel(m).PoolStats()
				if news > 64 {
					t.Errorf("m%d pool constructed %d envelopes for one-way traffic, want a small constant", m, news)
				}
				if free+held != news {
					t.Errorf("m%d pool: %d constructed != %d free + %d held", m, news, free, held)
				}
			}
		})
	}
}

// TestShardCountInvariance is the tentpole determinism pin: the same seed
// and workload must produce bit-identical traces, streamed trace-sink
// bytes, network counters, merged observability snapshots, process outcomes
// and final clock for default options (Shards unset), 1, 2, and 4 shards —
// and again with parallel round execution.
func TestShardCountInvariance(t *testing.T) {
	base := runShardWorkload(t, 1, nil)
	if base.spawned == 0 {
		t.Fatal("open-loop workload never spawned")
	}
	if base.stats.Frames == 0 {
		t.Fatal("workload generated no network traffic; the invariance check is vacuous")
	}
	if strings.Count(base.sink, "\n") < 100 {
		t.Fatalf("trace sink saw %d lines; the sink comparison is vacuous", strings.Count(base.sink, "\n"))
	}
	for _, shards := range []int{0, 2, 4} {
		got := runShardWorkload(t, shards, nil)
		if got.trace != base.trace {
			t.Errorf("%d shards: trace diverged from 1 shard (lens %d vs %d)",
				shards, len(got.trace), len(base.trace))
		}
		if got.sink != base.sink {
			t.Errorf("%d shards: trace sink bytes diverged from 1 shard (lens %d vs %d)",
				shards, len(got.sink), len(base.sink))
		}
		if !reflect.DeepEqual(got.stats, base.stats) {
			t.Errorf("%d shards: net stats diverged:\n%+v\nvs\n%+v", shards, got.stats, base.stats)
		}
		if got.metrics != base.metrics {
			t.Errorf("%d shards: merged obs snapshot diverged", shards)
		}
		if got.exits != base.exits {
			t.Errorf("%d shards: exits diverged:\n%s\nvs\n%s", shards, got.exits, base.exits)
		}
		if got.spawned != base.spawned {
			t.Errorf("%d shards: open-loop spawned %d vs %d", shards, got.spawned, base.spawned)
		}
		if got.now != base.now {
			t.Errorf("%d shards: clock after Run() is %d, 1 shard says %d", shards, got.now, base.now)
		}
	}
	for _, shards := range []int{2, 4} {
		par := runShardWorkload(t, shards, func(o *core.Options) { o.ShardParallel = true })
		if !par.same(base) {
			t.Errorf("%d shards: parallel rounds diverged from sequential execution", shards)
		}
		if par.parRounds == 0 {
			t.Errorf("%d shards: no round ran on goroutines; the parallel arm compared inline with inline", shards)
		}
	}
}

// TestShardLossyInvariance extends the determinism pin to a lossy network:
// with the machine-anchored ARQ armed (LossRate > 0), the same seed must
// still produce bit-identical traces, summed network counters (including
// drops and retransmits), merged snapshots, and process outcomes across
// 1, 2, and 4 shards, sequential or parallel. This is the property the old
// `Shards requires a lossless network` rejection existed to protect.
func TestShardLossyInvariance(t *testing.T) {
	mut := func(o *core.Options) {
		o.Net.LossRate = 0.03
		o.Net.RetransTimeout = 4000
		o.Net.MaxRetries = 60
	}
	base := runShardWorkload(t, 1, mut)
	if base.stats.Dropped == 0 {
		t.Fatal("lossy run dropped no frames; the ARQ invariance check is vacuous")
	}
	if base.stats.Retransmits == 0 {
		t.Fatal("lossy run retransmitted nothing; the ARQ invariance check is vacuous")
	}
	for _, shards := range []int{0, 2, 4} {
		got := runShardWorkload(t, shards, mut)
		if got.trace != base.trace || got.sink != base.sink {
			t.Errorf("%d shards: lossy trace diverged from 1 shard (lens %d vs %d, sink %d vs %d)",
				shards, len(got.trace), len(base.trace), len(got.sink), len(base.sink))
		}
		if !reflect.DeepEqual(got.stats, base.stats) {
			t.Errorf("%d shards: lossy net stats diverged:\n%+v\nvs\n%+v", shards, got.stats, base.stats)
		}
		if got.metrics != base.metrics {
			t.Errorf("%d shards: lossy merged obs snapshot diverged", shards)
		}
		if got.exits != base.exits {
			t.Errorf("%d shards: lossy exits diverged:\n%s\nvs\n%s", shards, got.exits, base.exits)
		}
	}
	par := runShardWorkload(t, 4, func(o *core.Options) {
		mut(o)
		o.ShardParallel = true
	})
	if !par.same(base) {
		t.Error("lossy parallel rounds diverged from sequential execution")
	}
	if par.parRounds == 0 {
		t.Error("no lossy round ran on goroutines; the parallel arm compared inline with inline")
	}
}

// TestShardFaultInjection drives the one-shot fault injections across a
// shard boundary: machine 1 (shard 0) sends to machine 2 (shard 1) with
// duplicates, a delay, and a loss burst injected on the sending shard. The
// ARQ's receiver dedup must keep delivery at-most-once (here: exactly-once,
// since retries outlast every fault), and the lossless variant must account
// every frame it abandons — orphan_dropped for cross-shard frames landing
// on a crashed machine, send_from_down for a crashed sender — through the
// merged obs registry.
func TestShardFaultInjection(t *testing.T) {
	t.Run("arq-at-most-once", func(t *testing.T) {
		c, err := core.New(core.Options{
			Machines: 4, Seed: 11, Shards: 2,
			Net: netw.Config{LossRate: 0.05, RetransTimeout: 3000, MaxRetries: 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := &workload.Sink{}
		sinkPID, err := c.Spawn(2, kernel.SpawnSpec{Body: sink})
		if err != nil {
			t.Fatal(err)
		}
		const sent = 30
		if _, err := c.Spawn(1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: sent, Interval: 400},
			Links: []link.Link{{Addr: addr.At(sinkPID, 2)}},
		}); err != nil {
			t.Fatal(err)
		}
		// All three injections armed before the run: 5 wire duplicates and
		// one delayed (reordered) frame on the cross-shard pair 1->2, plus a
		// cluster-wide 90% loss burst over the first 6ms.
		c.DuplicateNext(1, 2, 5)
		c.DelayNext(1, 2, 1500)
		c.LossBurst(0.9, 6000)
		c.Run()

		if got := len(sink.Got); got != sent {
			t.Fatalf("sink received %d messages, want exactly %d (at-most-once under dup injection, ARQ recovery under loss)", got, sent)
		}
		snap := c.ObsSnapshot()
		if v := snap.Value("netw.dup_injected"); v != 5 {
			t.Errorf("registry dup_injected = %d, want 5", v)
		}
		if v := snap.Value("netw.delay_injected"); v != 1 {
			t.Errorf("registry delay_injected = %d, want 1", v)
		}
		if v := snap.Value("netw.duplicates"); v < 5 {
			t.Errorf("registry duplicates = %d, want >= 5 (each injected dup must be suppressed or force a suppressed retransmit)", v)
		}
		if v := snap.Value("netw.dropped"); v == 0 {
			t.Error("loss burst dropped nothing; the recovery half of the test is vacuous")
		}
		if c.InflightARQ() != 0 || c.PendingFrames() != 0 {
			t.Errorf("quiescent cluster still holds ARQ state: inflight=%d pending=%d",
				c.InflightARQ(), c.PendingFrames())
		}
	})

	t.Run("lossless-orphan-and-down-accounting", func(t *testing.T) {
		c, err := core.New(core.Options{Machines: 4, Seed: 7, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		sink := &workload.Sink{}
		sinkPID, err := c.Spawn(2, kernel.SpawnSpec{Body: sink})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Spawn(1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: 20, Interval: 500},
			Links: []link.Link{{Addr: addr.At(sinkPID, 2)}},
		}); err != nil {
			t.Fatal(err)
		}
		// Crash the receiver mid-stream, on its own shard's engine. Every
		// chatter frame sent after this crosses the shard boundary and lands
		// on a down machine: lossless mode has no retry, and the sender's
		// envelope pool lives on the other shard, so the drop must surface
		// as orphan_dropped (not vanish).
		c.EngineOf(2).At(3200, "test:crash", func() { c.Kernel(2).Crash() })
		c.Run()

		// A crashed machine attempting to transmit must be counted too.
		nw := c.NetworkOfShard(c.ShardOf(2))
		nw.Send(2, 1, &msg.Message{
			Kind: msg.KindUser,
			From: addr.At(sinkPID, 2),
			To:   addr.At(sinkPID, 1),
			Body: []byte("from the grave"),
		})
		c.Run()

		snap := c.ObsSnapshot()
		if v := snap.Value("netw.orphan_dropped"); v == 0 {
			t.Error("cross-shard frames to the crashed machine left no orphan_dropped accounting")
		}
		if v := snap.Value("netw.send_from_down"); v != 1 {
			t.Errorf("registry send_from_down = %d, want 1", v)
		}
		ns := c.NetStats()
		if ns.OrphanDropped == 0 || ns.SendFromDown != 1 {
			t.Errorf("summed NetStats disagree: orphan=%d send_from_down=%d", ns.OrphanDropped, ns.SendFromDown)
		}
		if got := len(sink.Got); got == 0 || got >= 20 {
			t.Errorf("sink received %d messages, want some but not all 20 (crash mid-stream)", got)
		}
	})
}

// TestShardSection6Conformance re-runs the paper's §6 cost-model pins on a
// 2-shard cluster: splitting the runtime must not change the protocol's
// message economy — three data transfers, nine admin messages of 6–12
// bytes, and two extra messages per forwarded send.
func TestShardSection6Conformance(t *testing.T) {
	c, err := core.New(core.Options{Machines: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
	server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
	c.Run()
	// Machine 1 is shard 0, machine 2 shard 1: this migration's whole
	// protocol conversation crosses the shard boundary.
	if err := c.Migrate(server, 2); err != nil {
		t.Fatal(err)
	}
	c.Run()

	led := c.Ledger()
	if n := len(led.Records()); n != 1 {
		t.Fatalf("merged ledger has %d records, want 1", n)
	}
	rec := led.Records()[0]
	if !rec.OK || rec.PID != server || rec.From != 1 || rec.To != 2 {
		t.Fatalf("record identity wrong: %+v", rec)
	}
	if rec.MoveDataTransfers != 3 {
		t.Errorf("MoveDataTransfers = %d, want 3 (paper §6)", rec.MoveDataTransfers)
	}
	if rec.AdminMsgs != 9 {
		t.Errorf("AdminMsgs = %d, want 9 (paper §6)", rec.AdminMsgs)
	}
	if rec.AdminMinBytes < 6 || rec.AdminMaxBytes > 12 {
		t.Errorf("admin payload range [%d,%d]B outside the paper's 6–12B",
			rec.AdminMinBytes, rec.AdminMaxBytes)
	}

	// Two extra messages per forwarded send, measured through the summed
	// shard networks.
	before := c.NetStats().Frames
	c.Kernel(3).GiveMessageTo(addr.At(server, 2), addr.At(sink, 3), []byte("fresh"))
	c.Run()
	direct := c.NetStats().Frames - before

	before = c.NetStats().Frames
	c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("stale"))
	c.Run()
	stale := c.NetStats().Frames - before
	if stale-direct != 2 {
		t.Errorf("extra messages per forward = %d (direct=%d stale=%d), want 2 (paper §6)",
			stale-direct, direct, stale)
	}

	// The merged registry agrees with the merged struct counters.
	snap := c.ObsSnapshot()
	if v := snap.Value("kernel.m1.migrations_out"); v != 1 {
		t.Errorf("registry migrations_out = %d, want 1", v)
	}
	if v, w := snap.Value("netw.frames"), c.NetStats().Frames; v != w {
		t.Errorf("merged registry frames = %d, summed netw says %d", v, w)
	}
}

// openLoopScene builds the scene TestShardScale1000 pins and
// BenchmarkOpenLoopScale times: the streaming open-loop workload on every
// machine, plus one Chatter -> Sink conversation in each of pairs equal
// blocks of machines, so frames cross shard boundaries all run long.
func openLoopScene(tb testing.TB, o core.Options, ol workload.OpenLoop, pairs int) (*core.Cluster, *core.OpenLoopDriver) {
	tb.Helper()
	c, err := core.New(o)
	if err != nil {
		tb.Fatal(err)
	}
	d := c.StartOpenLoop(ol)
	step := o.Machines / pairs
	for m := step; m <= o.Machines; m += step {
		sink, err := c.Spawn(m, kernel.SpawnSpec{Body: &workload.Sink{}})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := c.Spawn(m-step+1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: 20, Interval: 1500},
			Links: []link.Link{{Addr: addr.At(sink, addr.MachineID(m))}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return c, d
}

// spawnedAll fails tb unless all want open-loop arrivals spawned.
func spawnedAll(tb testing.TB, d *core.OpenLoopDriver, want uint64) {
	tb.Helper()
	if got := d.Spawned(); got != want || d.Failed() != 0 {
		tb.Fatalf("spawned %d of %d open-loop jobs (%d failed)", got, want, d.Failed())
	}
}

// TestShardScale1000 is the capacity pin: a 1000-machine cluster under a
// 100k-process open-loop workload, run on 4 parallel shards, completes (in
// -short mode too) with every arrival spawned and cross-machine traffic
// flowing.
func TestShardScale1000(t *testing.T) {
	// 100 jobs per machine = 100_000 processes over the run, streamed.
	c, d := openLoopScene(t, core.Options{
		Machines: 1000, Seed: 17, Shards: 4, ShardParallel: true,
		TraceCap: 4096,
	}, workload.OpenLoop{Seed: 3, MeanGap: 400, PerMachine: 100, LongFraction: 0.1}, 20)
	c.Run()
	spawnedAll(t, d, 100_000)
	ns := c.NetStats()
	if ns.Frames == 0 || ns.Delivered == 0 {
		t.Fatalf("no cross-machine traffic: %+v", ns)
	}
	if c.Rounds() == 0 {
		t.Fatal("group never completed a synchronization round")
	}
	t.Logf("scale: fired=%d rounds=%d frames=%d final_t=%dµs",
		c.TotalFired(), c.Rounds(), ns.Frames, c.Now())
}

// BenchmarkOpenLoopScale is whole-cluster events/s of the parallel runtime,
// at 64/256/1000 machines on 1/2/4 shards. Every point does comparable
// work, 64k-100k processes: small clusters get proportionally denser
// arrivals, which keeps each lookahead round busy enough to amortize the
// shard barrier. One op is one run to quiescence; building the cluster is
// not timed. Tracing stays on, as in every real configuration, into a tiny
// ring.
//
// Two more points, on one shard, are the controlled pair behind the falloff
// from 64 to 1000 machines: each cluster size at the other's peak of live
// processes (Σ Spawned − Exited − Crashes over the kernels, sampled every
// simulated µs in an untimed run). 64m with 1000 jobs a machine peaks at
// 48 487 live and 1000m with 100 at 74 730; 1000m with 65 peaks at 48 482
// and 64m with 1540 at 74 692.
func BenchmarkOpenLoopScale(b *testing.B) {
	run := func(b *testing.B, machines, per, shards int) {
		var fired uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, d := openLoopScene(b, core.Options{
				Machines: machines, Seed: 17, Shards: shards, ShardParallel: true,
				TraceCap: 64,
			}, workload.OpenLoop{Seed: 3, MeanGap: 120, PerMachine: per, LongFraction: 0.1}, 8)
			b.StartTimer()
			c.Run()
			b.StopTimer()
			spawnedAll(b, d, uint64(machines*per))
			fired += c.TotalFired()
		}
		b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
	}
	for _, machines := range []int{64, 256, 1000} {
		per := 64_000 / machines
		if machines >= 1000 {
			per = 100
		}
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%dm/%dshard", machines, shards), func(b *testing.B) { run(b, machines, per, shards) })
		}
	}
	b.Run("1000m-live48k/1shard", func(b *testing.B) { run(b, 1000, 65, 1) })
	b.Run("64m-live75k/1shard", func(b *testing.B) { run(b, 64, 1540, 1) })
}

// BenchmarkObsSnapshot is one whole-cluster metrics snapshot of a freshly
// built 1000-machine cluster, no workload run, on 1 and 2 shards: every
// shard's registry renders its rows and sorts them, and on 2 shards the
// two snapshots merge. Building the cluster is not timed.
func BenchmarkObsSnapshot(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("1000m/%dshard", shards), func(b *testing.B) {
			c, err := core.New(core.Options{Machines: 1000, Seed: 1, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			var n int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n = len(c.ObsSnapshot().Metrics)
			}
			b.ReportMetric(float64(n), "metrics")
		})
	}
}
