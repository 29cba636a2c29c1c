// The cluster runtime: machines partitioned across shard-local engines
// synchronized by conservative lookahead (sim.Group), with cross-shard
// frames crossing through sender-owned outboxes. A default cluster is the
// one-shard case of the same thing. See DESIGN.md §11 for the shard model,
// the lookahead rule, and the determinism argument.
//
// Division of labor: internal/sim owns the round/barrier machinery,
// internal/netw owns canonical frame ordering (the arrival calendar + gate
// pump), and this file owns cluster assembly — shard assignment, outbox
// transport, merged observability views, and fan-out of fault injection to
// the shards that enforce each fault.
package core

import (
	"fmt"
	"reflect"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// build constructs the engines, networks, kernels, and observability plane.
// The caller (New) runs boot() afterwards.
func (c *Cluster) build() {
	o := &c.opts
	shards := o.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > o.Machines {
		shards = o.Machines
	}
	c.shardOf = make([]int, o.Machines+1)
	for m := 1; m <= o.Machines; m++ {
		c.shardOf[m] = (m - 1) % shards
	}
	c.outboxes = make([][][]netw.RemoteFrame, shards)
	c.sinkBuf = make([][]trace.Record, shards)
	for s := 0; s < shards; s++ {
		s := s
		eng := sim.NewEngine(o.Seed)
		nw := netw.New(eng, o.Net)
		if shards > 1 {
			c.outboxes[s] = make([][]netw.RemoteFrame, shards)
			nw.SetCanonical(o.Machines, o.Seed,
				func(m addr.MachineID) bool { return c.shardOf[m] == s },
				c.shipFrom(s))
		}
		tr := trace.New(eng.Now, o.TraceCap)
		if o.TraceSink != nil {
			tr.SetSink(func(r trace.Record) { c.sinkBuf[s] = append(c.sinkBuf[s], r) })
		}
		c.engines = append(c.engines, eng)
		c.nets = append(c.nets, nw)
		c.trs = append(c.trs, tr)
		c.regs = append(c.regs, obs.NewRegistry())
		c.leds = append(c.leds, obs.NewLedger())
	}

	kcfg := o.Kernel
	kcfg.Registry = c.reg
	if o.Programs != nil {
		kcfg.Programs = func(name string, args []string) (kernel.SpawnSpec, error) {
			f, ok := o.Programs[name]
			if !ok {
				return kernel.SpawnSpec{}, fmt.Errorf("core: unknown program %q", name)
			}
			return f(args)
		}
	}
	// Every kernel only ranges over the machine list (eager-update and
	// search broadcasts), so all of them share one.
	kcfg.Machines = machineList(o.Machines)
	for m := 1; m <= o.Machines; m++ {
		s := c.shardOf[m]
		kcfg.Tracer = c.trs[s]
		k := kernel.New(addr.MachineID(m), c.engines[s], c.nets[s], kcfg)
		k.SetObs(c.regs[s], c.leds[s])
		c.ks[m] = k
	}
	for s := 0; s < shards; s++ {
		c.nets[s].RegisterObs(c.regs[s])
	}
	// Every frame, ARQ acks included, takes at least the one LAN latency,
	// so that is the conservative lookahead window W.
	c.group = &sim.Group{
		Engines:   c.engines,
		Lookahead: c.nets[0].Config().Latency,
		Barrier:   c.barrier,
		Parallel:  o.ShardParallel,
	}
}

// shipFrom returns shard s's cross-shard send hook: it parks the frame in
// s's outbox for the receiving shard. The hook captures s, so the row it
// writes is its caller's by construction, whatever the frame says (an ARQ
// ack is shipped by the data frame's receiver's shard, from that shard's
// pump). Inside a round only shard s's network runs the hook, and between
// rounds only barrier touches the outboxes; the round's join (or its
// running inline) orders the two, so no lock is needed.
//
//demos:owner outbox — the outbox holds each shipped frame, pooled envelope and all, until the barrier files it in the receiving shard's calendar.
func (c *Cluster) shipFrom(s int) func(netw.RemoteFrame) {
	out := c.outboxes[s]
	return func(f netw.RemoteFrame) {
		to := c.shardOf[f.To]
		out[to] = append(out[to], f)
	}
}

// barrier runs between rounds, on the coordinating goroutine, the one place
// no shard runs: it sends every envelope a shard's releases parked in its
// return pool home to the pool of the shard that constructed it; it moves
// every outbox into the receiving shard's canonical arrival calendar (whose
// order does not depend on the order of insertion) and empties it in place,
// so a warm outbox never allocates; then it writes the trace records the
// shards emitted since the last barrier to TraceSink, merged in (time,
// machine, emission) order. A round's records are all later than the
// previous round's, so the stream is in that order end to end, whatever the
// shard count. Run and RunFor end on a barrier, so nothing is parked when
// they return.
func (c *Cluster) barrier() {
	for _, nw := range c.nets {
		nw.SendHome()
	}
	for _, out := range c.outboxes {
		for to, q := range out {
			for _, f := range q {
				c.nets[to].EnqueueRemote(f)
			}
			clear(q) // the calendar owns the messages now
			out[to] = q[:0]
		}
	}
	if c.opts.TraceSink == nil {
		return
	}
	var recs []trace.Record
	for s, buf := range c.sinkBuf {
		recs = append(recs, buf...)
		c.sinkBuf[s] = buf[:0]
	}
	sortTraceStable(recs)
	for _, r := range recs {
		fmt.Fprintln(c.opts.TraceSink, r)
	}
}

// EngineOf returns the engine driving machine m. Drivers scheduling
// per-machine events (workload arrival pumps, scripted migrations) must use
// this so the event lands on the machine's own shard.
func (c *Cluster) EngineOf(m int) *sim.Engine { return c.engines[c.shardOf[m]] }

// Shards returns the resolved shard count (>= 1).
func (c *Cluster) Shards() int { return len(c.engines) }

// ShardOf returns the shard index hosting machine m.
func (c *Cluster) ShardOf(m int) int { return c.shardOf[m] }

// EngineOfShard returns shard s's engine. The chaos injector arms its
// per-shard pulse replicas on these.
func (c *Cluster) EngineOfShard(s int) *sim.Engine { return c.engines[s] }

// NetworkOfShard returns shard s's network, for shard-local fault
// application (the chaos plane's per-shard pulses).
func (c *Cluster) NetworkOfShard(s int) *netw.Network { return c.nets[s] }

// InflightARQ sums the un-acked ARQ flights across every shard's network.
// Zero at quiescence — the chaos invariant audit asserts it.
func (c *Cluster) InflightARQ() int {
	total := 0
	for _, nw := range c.nets {
		total += nw.InflightARQ()
	}
	return total
}

// PendingFrames sums the frames waiting in every shard's canonical arrival
// calendar. Zero at quiescence.
func (c *Cluster) PendingFrames() int {
	total := 0
	for _, nw := range c.nets {
		total += nw.PendingFrames()
	}
	return total
}

// Rounds returns the number of completed synchronization rounds.
func (c *Cluster) Rounds() uint64 { return c.group.Rounds }

// ParallelRounds returns how many of those rounds ran on goroutines: zero
// without ShardParallel, and the dense ones with it.
func (c *Cluster) ParallelRounds() uint64 { return c.group.ParallelRounds }

// TotalFired sums events executed across all engines.
func (c *Cluster) TotalFired() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.Fired()
	}
	return n
}

// NetStats returns the cluster-wide network counters: the sum over every
// shard's network. Per-machine rows sum too — a shard accounts FramesIn for
// remote machines it sends to, so only the cluster-wide total is
// meaningful.
func (c *Cluster) NetStats() netw.Stats {
	out := c.nets[0].Stats()
	sum := reflect.ValueOf(&out).Elem()
	for _, nw := range c.nets[1:] {
		s := nw.Stats()
		// Every scalar counter, whatever netw.Stats declares.
		for i, sv := 0, reflect.ValueOf(s); i < sum.NumField(); i++ {
			if f := sum.Field(i); f.CanUint() {
				f.SetUint(f.Uint() + sv.Field(i).Uint())
			}
		}
		for k, v := range s.ByKind {
			out.ByKind[k] += v
		}
		for k, v := range s.BytesByKind {
			out.BytesByKind[k] += v
		}
		for m, ms := range s.PerMachine {
			agg := out.PerMachine[m]
			agg.FramesOut += ms.FramesOut
			agg.FramesIn += ms.FramesIn
			agg.BytesOut += ms.BytesOut
			agg.BytesIn += ms.BytesIn
			out.PerMachine[m] = agg
		}
	}
	return out
}

// TraceRecords returns the cluster's trace, merged across shards into a
// canonical order: (time, machine, per-machine emission order). A machine's
// records live in exactly one shard's tracer in emission order, so while no
// shard's ring has overwritten a record (TraceOverwritten is 0) a stable
// sort of the concatenation by (T, Machine) yields the same sequence for
// every shard count — this is what the shard-invariance tests pin. Each
// shard keeps its own TraceCap records, so once a ring wraps the merged
// trace holds more records the more shards there are.
func (c *Cluster) TraceRecords() []trace.Record {
	var out []trace.Record
	for _, tr := range c.trs {
		out = append(out, tr.Records()...)
	}
	sortTraceStable(out)
	return out
}

// TraceOverwritten sums, over every shard's tracer, the records its ring
// dropped to make room for newer ones: zero while TraceRecords holds the
// whole trace.
func (c *Cluster) TraceOverwritten() uint64 {
	var n uint64
	for _, tr := range c.trs {
		n += tr.Overwritten()
	}
	return n
}

func sortTraceStable(recs []trace.Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].T != recs[j].T {
			return recs[i].T < recs[j].T
		}
		return recs[i].Machine < recs[j].Machine
	})
}

// --- fault injection fan-out ---------------------------------------------------

// netsFor returns the distinct shard networks that enforce a fault on the
// pair (a, b): sends a->b are checked on a's shard, b->a on b's.
func (c *Cluster) netsFor(a, b addr.MachineID) []*netw.Network {
	sa, sb := c.shardOf[a], c.shardOf[b]
	if sa == sb {
		return []*netw.Network{c.nets[sa]}
	}
	return []*netw.Network{c.nets[sa], c.nets[sb]}
}

// Heal reconnects a partitioned pair on every shard that originates
// traffic for it.
func (c *Cluster) Heal(a, b addr.MachineID) {
	for _, nw := range c.netsFor(a, b) {
		nw.Heal(a, b)
	}
}

// NetLossy reports whether the network config arms the machine-anchored
// ARQ.
func (c *Cluster) NetLossy() bool { return c.opts.Net.LossRate > 0 }
