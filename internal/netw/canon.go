// Canonical delivery: the network's one delivery path.
//
// Frames are not scheduled as per-frame delivery events: two frames
// converging on one machine must land in the SAME relative order however
// the cluster's machines are partitioned across shard-local engines, or
// same-seed runs stop being bit-identical across shard counts. Every
// cross-machine frame — on one engine, intra-shard and cross-shard alike —
// therefore waits in a per-engine arrival calendar ordered
//
//	(deliverTime, toMachine, fromMachine, perSenderSeq)
//
// and is delivered from a gate event ("netw:pump") that sorts before
// all normal events at its timestamp. The per-sender sequence is a dense
// counter per sending machine, so it is itself shard-invariant (machine m's
// k-th frame is its k-th frame under any sharding), which makes the key —
// and hence delivery order at equal timestamps — canonical.
//
// The calendar is a power-of-two table of lists indexed by the arrival time's
// low bits, each kept sorted by the full key (pendLess). The engine already
// orders by time — the first entry filed for an instant schedules one gate at
// exactly that time, and the entries that join it ride along — so nothing is
// compared to find what is due: when a pump runs at t, everything due heads
// list t&mask, and entries of other times that alias into it sort behind.
// The pump tells the engine how many frames it landed (sim.Engine.CountAs),
// so the event count is what it would be with a gate per frame: it depends on
// the frames, not on how many gates they shared.
//
// Cross-shard frames are shipped through a cluster-provided hook into the
// sending shard's outbox and enter the receiving shard's calendar at the
// round barrier; where an entry sits is a function of its key alone, never of
// when it was filed, so the order the barrier drains the outboxes in cannot
// perturb simulation order. The envelope itself crosses: the receiving
// shard's kernel releases it through its own pool, which parks an envelope of
// another shard's pool in the shard's return pool (msg.Pool.ReturnVia), and
// the barrier sends every parked envelope home (SendHome) before it drains
// the outboxes, so a pool is only ever written by its own shard's goroutine
// inside a round.
package netw

import (
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Canonical entry classes. Lossless traffic is all classData; the
// machine-anchored ARQ (arq.go) adds injected wire duplicates and
// network-level acks, which ride the same calendar so their ordering at
// equal timestamps is fixed by class rather than by per-engine scheduling
// order.
const (
	classData = iota // a data frame (the only class in lossless mode)
	classDup         // an injected wire duplicate of a data frame
	classAck         // a network-level ARQ ack flowing back to the sender
)

// RemoteFrame is one cross-shard frame in flight between a sending shard
// and the receiving shard's calendar. At and Seq are computed on the
// sending shard; the receiving shard files what the barrier hands it by
// (At, To, From, Seq, Class, Attempt), so the order it was shipped or drained
// in cannot influence simulation order. The cluster layer treats the frame as
// opaque cargo: it never inspects M. Class and Attempt are ARQ routing state
// (zero for lossless frames); the ARQ's frame id is frameID(From, Seq). Acks
// carry a nil M.
type RemoteFrame struct {
	From, To addr.MachineID
	At       sim.Time
	Seq      uint64
	Class    uint8
	Attempt  uint32
	M        *msg.Message
}

// pendEnt is one frame waiting for canonical delivery on this shard: an entry
// of the calendar's arena (Network.pend), chained through next into its
// arrival time's list while queued and into the free list afterwards.
type pendEnt struct {
	at      sim.Time
	seq     uint64
	m       *msg.Message
	attempt uint32 // ARQ attempt number (tie-break between retransmissions)
	next    int32  // arena index of the entry after this one, 0 at the end (entry 0 is never used)
	to      addr.MachineID
	from    addr.MachineID
	class   uint8 // classData / classDup / classAck
}

// pendSlot is one list of the calendar; head 0 means empty (tail is stale).
type pendSlot struct{ head, tail int32 }

// pendMinSlots is the table size of a new Network; it doubles from there.
const pendMinSlots = 64

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
	n.ret = msg.NewReturnPool()
	for _, ms := range n.ms {
		if ms.owner != nil {
			ms.owner.FramePool().ReturnVia(n.ret)
		}
	}
}

// SendHome files every envelope parked in this shard's return pool on its
// home pool's free list. It writes pools of other shards: call it only where
// no shard runs, at the cluster's round barrier.
func (n *Network) SendHome() { n.ret.SendHome() }

// isLocal reports whether machine m's frames are delivered by this engine.
func (n *Network) isLocal(m addr.MachineID) bool { return n.local == nil || n.local(m) }

// canonSend routes one lossless frame canonically. The arrival time is
// computed on the sending shard (now + transit), so a shipped frame carries
// its exact delivery timestamp with it.
//
//demos:hotpath — the lossless path must stay allocation-free for local targets: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
//demos:owner inflight — the calendar owns the frame until pump hands it to deliver; a frame for another shard leaves with ship, envelope and all.
func (n *Network) canonSend(from, to addr.MachineID, m *msg.Message, size int, extra sim.Time) {
	at := n.eng.Now() + n.TransitTime(size) + extra
	fm := n.mach(from)
	fm.seq++
	seq := fm.seq
	m.Hops++
	if n.isLocal(to) {
		if n.pendPush(pendEnt{at: at, to: to, from: from, seq: seq, m: m}) {
			n.eng.AtGate(at, "netw:pump", n.pumpFn)
		}
		return
	}
	n.ship(RemoteFrame{From: from, To: to, At: at, Seq: seq, M: m})
}

// EnqueueRemote lands a frame shipped from another shard: the cluster's
// outbox drain calls this at a round barrier, strictly before the frame's
// arrival time (guaranteed by the conservative lookahead window; a frame
// handed over at or after it would be stranded, so pendPush panics).
//
//demos:owner inflight — the calendar owns the shipped frame until pump delivers it.
func (n *Network) EnqueueRemote(f RemoteFrame) {
	if n.pendPush(pendEnt{
		at: f.At, to: f.To, from: f.From, seq: f.Seq,
		class: f.Class, attempt: f.Attempt, m: f.M,
	}) {
		n.eng.AtGate(f.At, "netw:pump", n.pumpFn)
	}
}

// pump fires every pending delivery due at the current time. It runs as a
// gate event, so all frames arriving "at t" are delivered before any normal
// event at t, in canonical order. A delivery may send frames — never due at
// this instant (pendPush) — and may grow the table, so the list is read
// again after every delivery. In ARQ mode entries carry a class and land
// through arqLand (arq.go); the lossless path pays one boolean test for
// that, reads the two fields it needs off the entry in place and stays
// allocation-free.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send and /netw-send-depth64 in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
func (n *Network) pump() {
	now := n.eng.Now()
	var landed uint64
	for {
		s := &n.pendSlots[uint64(now)&uint64(len(n.pendSlots)-1)]
		i := s.head
		ent := &n.pend[i]
		if i == 0 || ent.at > now {
			break
		}
		s.head = ent.next
		n.pendN--
		ent.next, n.pendFree = n.pendFree, i
		landed++
		if n.arqOn {
			e := *ent
			ent.m = nil
			n.arqLand(e)
			continue
		}
		to, m := ent.to, ent.m
		ent.m = nil // drop the frame pointer for GC
		n.deliver(to, m)
	}
	n.eng.CountAs(landed)
}

// pendPush queues one frame for canonical delivery at ent.at and reports
// whether the caller must schedule the netw:pump gate at that time: whether
// the frame is the only one queued for its instant. Every frame is due after
// now (Send adds Latency >= 1), so none joins an instant a pump is draining.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send and /netw-send-depth64 in bench_hotpath_test.go and TestShardHotPathZeroAlloc in internal/core/shard_test.go.
func (n *Network) pendPush(ent pendEnt) (gate bool) {
	if now := n.eng.Now(); ent.at <= now {
		panicLatePend(ent.at, now)
	}
	if n.pendN == len(n.pendSlots) {
		n.pendGrow()
	}
	i := n.pendFree
	if i != 0 {
		n.pendFree = n.pend[i].next
	} else {
		n.pend = append(n.pend, pendEnt{})
		i = int32(len(n.pend) - 1)
	}
	n.pend[i] = ent
	n.pendN++
	return n.pendFile(i)
}

// pendFile links arena entry i into its arrival time's list where pendLess
// puts it — alone or at the tail mostly, a walk of a handful otherwise — and
// reports whether it is the only entry of its arrival time. Entries of one
// time are neighbours in the list, so only i's two neighbours need a look.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-depth64 and BenchmarkNetwSendDepth1k in bench_hotpath_test.go; order: TestPendOrderSeeds in pend_test.go.
func (n *Network) pendFile(i int32) (alone bool) {
	ent := &n.pend[i]
	ent.next = 0
	s := &n.pendSlots[uint64(ent.at)&uint64(len(n.pendSlots)-1)]
	if s.head == 0 {
		s.head, s.tail = i, i
		return true
	}
	if tail := &n.pend[s.tail]; !pendLess(ent, tail) {
		tail.next = i
		s.tail = i
		return tail.at != ent.at
	}
	link, prev := &s.head, int32(0) // before the first entry ordered after i: the tail is one
	for pendLess(&n.pend[*link], ent) {
		prev = *link
		link = &n.pend[prev].next
	}
	ent.next, *link = *link, i
	return n.pend[ent.next].at != ent.at && (prev == 0 || n.pend[prev].at != ent.at)
}

// pendGrow doubles the table and files every queued entry again, so entries
// never outnumber lists: a list's expected length stays at or below one
// whatever the delay horizon, and there is no size to tune.
func (n *Network) pendGrow() {
	old := n.pendSlots
	n.pendSlots = make([]pendSlot, 2*len(old))
	for _, s := range old {
		for i := s.head; i != 0; {
			next := n.pend[i].next
			n.pendFile(i)
			i = next
		}
	}
}

// panicLatePend keeps fmt off the annotated pendPush. A frame filed for now or
// earlier could sit in a list no pump visits: a programming error.
func panicLatePend(at, now sim.Time) {
	panic(fmt.Sprintf("netw: frame filed for %v at %v: its arrival time has passed", at, now))
}
