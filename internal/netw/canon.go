// Canonical delivery: the network's one delivery path.
//
// Frames are not scheduled as per-frame delivery events: two frames
// converging on one machine must land in the SAME relative order however
// the cluster's machines are partitioned across shard-local engines, or
// same-seed runs stop being bit-identical across shard counts. Every
// cross-machine frame — on one engine, intra-shard and cross-shard alike —
// therefore goes through a per-engine pending min-heap keyed
//
//	(deliverTime, toMachine, fromMachine, perSenderSeq)
//
// and is delivered from a gate event ("netw:pump") that sorts before
// all normal events at its timestamp. The per-sender sequence is a dense
// counter per sending machine, so it is itself shard-invariant (machine m's
// k-th frame is its k-th frame under any sharding), which makes the heap
// key — and hence delivery order at equal timestamps — canonical.
//
// Cross-shard frames are shipped through a cluster-provided hook into the
// sending shard's outbox and enter the receiving shard's heap at the round
// barrier; heap order is insertion-order-independent, so the order the
// barrier drains the outboxes in cannot perturb simulation order. A pooled envelope never crosses a shard boundary: the ship path
// transmits a heap clone and retires the original to its owner, exactly
// like the ARQ's copy-on-retain rule.
package netw

import (
	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Canonical entry classes. Lossless traffic is all classData; the
// machine-anchored ARQ (arq.go) adds injected wire duplicates and
// network-level acks, which ride the same pending heap so their ordering at
// equal timestamps is fixed by class rather than by per-engine scheduling
// order.
const (
	classData = iota // a data frame (the only class in lossless mode)
	classDup         // an injected wire duplicate of a data frame
	classAck         // a network-level ARQ ack flowing back to the sender
)

// RemoteFrame is one cross-shard frame in flight between a sending shard
// and the receiving shard's pending heap. At and Seq are computed on the
// sending shard; the receiving shard's pending heap orders what the barrier
// hands it by (At, To, From, Seq, Class, Attempt), so the order it was
// shipped or drained in cannot influence simulation order. The
// cluster layer treats the frame as opaque cargo: it never inspects M.
// Class, Attempt, and ID are ARQ routing state (zero for lossless frames):
// acks carry a nil M.
type RemoteFrame struct {
	From, To addr.MachineID
	At       sim.Time
	Seq      uint64
	Class    uint8
	Attempt  uint32
	ID       uint64
	M        *msg.Message
}

// pendEnt is one frame waiting for canonical delivery on this shard.
type pendEnt struct {
	at      sim.Time
	to      addr.MachineID
	from    addr.MachineID
	seq     uint64
	class   uint8  // classData / classDup / classAck
	attempt uint32 // ARQ attempt number (tie-break between retransmissions)
	id      uint64 // ARQ frame id (dedup key); 0 in lossless mode
	m       *msg.Message
}

// pendLess is the canonical delivery order at a shard: time, then receiver,
// then sender, then the sender's frame sequence, then ARQ class and attempt
// (distinct retransmissions of one frame share (to, from, seq)). Every
// component is shard-invariant, so so is the order.
func pendLess(a, b *pendEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.to != b.to {
		return a.to < b.to
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.attempt < b.attempt
}

// SetCanonical tells the network it is one shard of a cluster of `machines`
// total machines: local reports whether a machine id is attached to this
// shard, and ship hands a frame bound for another shard to the cluster's
// outbox plane together with its precomputed arrival time and per-sender
// sequence. Must be called before any Send. seed keys the hash-based loss
// draws and must be identical on every shard of one run, so a frame's fate
// is a pure function of its identity, not of shard count.
func (n *Network) SetCanonical(machines int, seed int64, local func(addr.MachineID) bool, ship func(RemoteFrame)) {
	n.total = addr.MachineID(machines)
	n.seed = uint64(seed)
	n.local, n.ship = local, ship
	// Size the dense per-machine tables to the whole cluster: this shard
	// sequences and accounts frames for remote receivers it sends to, and
	// the obs registry registers one sampler row per machine on every shard
	// so merged snapshots sum to the cluster totals.
	n.mach(n.total)
	n.stats.machine(n.total)
}

// isLocal reports whether machine m's frames are delivered by this engine.
func (n *Network) isLocal(m addr.MachineID) bool { return n.local == nil || n.local(m) }

// canonSend routes one lossless frame canonically. The arrival time is
// computed on the sending shard (now + transit), so a shipped frame carries
// its exact delivery timestamp with it.
//
//demos:hotpath — the lossless path must stay allocation-free for local targets: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
//demos:owner inflight — the pending heap owns the frame until pump hands it to deliver; a frame shipped cross-shard is a heap clone (the pooled original is retired to its owner first).
func (n *Network) canonSend(from, to addr.MachineID, m *msg.Message, size int, extra sim.Time) {
	at := n.eng.Now() + n.transit(from, to, size) + extra
	fm := n.mach(from)
	fm.seq++
	seq := fm.seq
	m.Hops++
	if n.isLocal(to) {
		n.pendPush(pendEnt{at: at, to: to, from: from, seq: seq, m: m})
		n.eng.AtGate(at, "netw:pump", n.pumpFn)
		return
	}
	if m.Pooled() {
		c := m.Clone()
		n.retire(from, m)
		m = c
	}
	n.ship(RemoteFrame{From: from, To: to, At: at, Seq: seq, M: m})
}

// EnqueueRemote lands a frame shipped from another shard: the cluster's
// outbox drain calls this at a round barrier, strictly before the frame's
// arrival time (guaranteed by the conservative lookahead window).
//
//demos:owner inflight — the pending heap owns the shipped clone until pump delivers it.
func (n *Network) EnqueueRemote(f RemoteFrame) {
	n.pendPush(pendEnt{
		at: f.At, to: f.To, from: f.From, seq: f.Seq,
		class: f.Class, attempt: f.Attempt, id: f.ID, m: f.M,
	})
	n.eng.AtGate(f.At, "netw:pump", n.pumpFn)
}

// pump fires every pending delivery due at or before the current time. It
// runs as a gate event, so all frames arriving "at t" are delivered before
// any normal event at t, in the heap's canonical order. In ARQ mode entries
// carry a class and land through arqLand (arq.go); the lossless path pays
// one boolean test for that and stays allocation-free.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
func (n *Network) pump() {
	now := n.eng.Now()
	for len(n.pend) > 0 && n.pend[0].at <= now {
		if n.arqOn {
			ent := n.pend[0]
			n.pendPop()
			n.arqLand(ent)
			continue
		}
		to, m := n.pend[0].to, n.pend[0].m
		n.pendPop()
		n.deliver(to, m)
	}
}

// pendPush inserts into the canonical binary min-heap.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
func (n *Network) pendPush(ent pendEnt) {
	n.pend = append(n.pend, ent)
	h := n.pend
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if pendLess(&h[p], &ent) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// pendPop removes the minimum entry (the caller has read it off pend[0]).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
func (n *Network) pendPop() {
	h := n.pend
	last := len(h) - 1
	ent := h[last]
	h[last] = pendEnt{} // drop the frame pointer for GC
	n.pend = h[:last]
	h = n.pend
	i := 0
	for {
		c := i<<1 + 1
		if c >= last {
			break
		}
		if c+1 < last && pendLess(&h[c+1], &h[c]) {
			c++
		}
		if pendLess(&ent, &h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if last > 0 {
		h[i] = ent
	}
}

// MinLatency returns the smallest one-way propagation latency between any
// ordered pair of the given machines under cfg (per-byte cost excluded).
// This is the cluster's conservative-lookahead window W.
func (cfg Config) MinLatency(machines int) sim.Time {
	cfg.fillDefaults()
	if cfg.PairLatency == nil {
		return cfg.Latency
	}
	var min sim.Time
	found := false
	for a := 1; a <= machines; a++ {
		for b := 1; b <= machines; b++ {
			if a == b {
				continue
			}
			l := cfg.PairLatency(addr.MachineID(a), addr.MachineID(b))
			if !found || l < min {
				min, found = l, true
			}
		}
	}
	if !found {
		return cfg.Latency
	}
	return min
}

// AckLatency returns the one-way transit time of a network-level ARQ ack:
// acks travel at the flat per-frame latency with no per-byte cost (they
// carry no payload; see arq.go). A lossy cluster clamps its
// conservative lookahead window to min(MinLatency, AckLatency), because
// acks are cross-shard frames too.
func (cfg Config) AckLatency() sim.Time {
	cfg.fillDefaults()
	return cfg.Latency
}
