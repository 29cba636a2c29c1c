// Machine-anchored ARQ: acknowledge/retransmit over canonical delivery.
//
// Per-frame deliver/ack/retry closures on one shared engine, with losses
// drawn from that engine's RNG, cannot survive sharding: a delivery closure
// would have to fire on a peer shard's engine mid-round, and RNG draw order
// depends on how machines are partitioned across shards. Every piece of ARQ
// state is therefore anchored to the sending machine, so `LossRate > 0`
// behaves the same on one engine, on N shards, and under `ShardParallel`:
//
//   - Retransmission timers are normal events on the sender's OWN engine;
//     the in-flight table (inflight, keyed by shard-invariant frame id
//     sender<<48|seq) never leaves the sender's shard.
//   - Data frames, injected wire duplicates, and network-level acks all
//     ride the canonical pending heap / gate pump (canon.go), ordered by
//     (at, to, from, seq, class, attempt) — every component shard-invariant.
//     Acks flow back to the sender's shard as canonical RemoteFrames with a
//     nil payload.
//   - Loss decisions are splitmix64 hash draws keyed
//     (seed, frame id, attempt, salt) instead of engine-RNG draws, so a
//     frame's fate is a pure function of its identity: bit-identical across
//     1/2/4 shards, sequential or parallel.
//   - The receiver's down state is consulted at ARRIVAL on the receiver's
//     own shard — a sender cannot see a cross-shard crash. That is
//     shard-count-consistent because crash/restart are normal events and
//     the pump is a gate event, which sorts first at equal timestamps.
//   - Partitions and loss bursts are consulted on the sending shard at
//     transmit time and on the receiving shard at ack time; the
//     chaos injector (internal/chaos) applies both to every shard at
//     identical sim times via fault-class events, which sort before gates.
//
// The master copy of a frame stays with its flight; every wire copy —
// first attempt, retransmission, or injected duplicate — is a heap clone,
// so a retransmitting sender never shares a *msg.Message with a pending
// heap on another shard (no cross-shard aliasing under parallel rounds).
package netw

import (
	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Salts separating the independent hash-draw streams per frame attempt.
const (
	saltFrame = 0 // does this attempt's data frame survive the wire?
	saltAck   = 1 // does this attempt's ack survive the way back?
)

// arqFlight is one frame in flight from a machine on this shard. It owns
// the master message; wire copies are clones. The flight is removed from
// the inflight table when the ack lands or retries are exhausted.
type arqFlight struct {
	from, to addr.MachineID
	m        *msg.Message // master heap copy (pooled originals are retired)
	size     int
	seq      uint64 // per-sender dense sequence (shard-invariant)
	id       uint64 // sender<<48 | seq: the dedup + ack key
	attempt  uint32
	acked    bool
}

// arqDraw returns a deterministic pseudo-uniform value in [0, 1) for one
// (frame, attempt, salt) triple: a splitmix64 finalizer over the run seed
// and the frame's identity. Identical on every shard of every shard count,
// which is the whole point — the engine RNGs are per-shard and useless here.
func arqDraw(seed, id uint64, attempt uint32, salt uint64) float64 {
	x := seed ^ id*0x9e3779b97f4a7c15 ^ (uint64(attempt)+1)*0xbf58476d1ce4e5b9 ^ (salt+1)*0x94d049bb133111eb
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// lossRate returns the effective per-attempt loss probability right now
// (the configured rate, or an active burst's rate if higher).
func (n *Network) lossRate() float64 {
	rate := n.cfg.LossRate
	if n.burstEnd > n.eng.Now() && n.burstRate > rate {
		rate = n.burstRate
	}
	return rate
}

// canonSendARQ submits one frame to the machine-anchored retransmission
// machinery. A pooled envelope is never retained: the master is a heap clone
// and the original retires to its owner (copy-on-retain), so the pooled fast
// path and the lossy network are not mutually exclusive. An injected
// duplicate reuses the frame id, exercising receiver dedup rather than
// user-visible duplication.
//
//demos:owner inflight — the flight owns the master until the ack lands or deadFrame takes it; every enqueued wire copy is a clone owned by a pending heap.
func (n *Network) canonSendARQ(from, to addr.MachineID, m *msg.Message, size int, extra sim.Time, dup bool) {
	if m.Pooled() {
		c := m.Clone()
		n.retire(from, m)
		m = c
	}
	fm := n.mach(from)
	fm.seq++
	seq := fm.seq
	fl := &arqFlight{
		from: from, to: to, m: m, size: size,
		seq: seq, id: uint64(from)<<48 | seq,
	}
	n.inflight[fl.id] = fl
	n.arqTransmit(fl, extra)
	if dup {
		dm := m.Clone()
		dm.Hops = m.Hops
		n.arqEnqueue(pendEnt{
			at: n.eng.Now() + n.transit(from, to, size) + extra + 1,
			to: to, from: from, seq: seq,
			class: classDup, id: fl.id, m: dm,
		})
	}
}

// arqTransmit is one attempt: decide the frame's fate by hash draw, enqueue
// a clone for canonical delivery if it survives, and arm the retransmission
// check on the sender's own engine. The receiver's down state is NOT
// consulted here — it lives on the receiver's shard and is checked at
// arrival (arqLand); a frame to a crashed machine burns retries until it
// restarts or they run out.
func (n *Network) arqTransmit(fl *arqFlight, extra sim.Time) {
	if fl.attempt > 0 {
		n.stats.Retransmits++
	}
	lost := arqDraw(n.seed, fl.id, fl.attempt, saltFrame) < n.lossRate() ||
		n.partitioned(fl.from, fl.to)
	if lost {
		n.stats.Dropped++
	} else {
		fl.m.Hops++
		n.arqEnqueue(pendEnt{
			at: n.eng.Now() + n.transit(fl.from, fl.to, fl.size) + extra,
			to: fl.to, from: fl.from, seq: fl.seq,
			class: classData, attempt: fl.attempt, id: fl.id,
			m: fl.m.Clone(),
		})
	}
	attempt := fl.attempt
	n.eng.After(n.cfg.RetransTimeout+extra, "netw:retrans-check", func() {
		if fl.acked || fl.attempt != attempt {
			return
		}
		if int(fl.attempt)+1 >= n.cfg.MaxRetries {
			n.stats.Dead++
			delete(n.inflight, fl.id)
			n.deadFrame(fl.from, fl.to, fl.m)
			return
		}
		fl.attempt++
		n.arqTransmit(fl, 0)
	})
}

// arqEnqueue routes one ARQ heap entry: into this shard's pending heap when
// the destination is local, across the cluster's outbox plane otherwise.
//
//demos:owner inflight — the pending heap (this shard's or, via ship, the destination shard's) owns the entry's clone until arqLand consumes it.
func (n *Network) arqEnqueue(ent pendEnt) {
	if n.isLocal(ent.to) {
		n.pendPush(ent)
		n.eng.AtGate(ent.at, "netw:pump", n.pumpFn)
		return
	}
	n.ship(RemoteFrame{
		From: ent.from, To: ent.to, At: ent.at, Seq: ent.seq,
		Class: ent.class, Attempt: ent.attempt, ID: ent.id, M: ent.m,
	})
}

// arqLand consumes one pending-heap entry on the destination's shard: the
// ARQ-mode pump dispatch.
func (n *Network) arqLand(ent pendEnt) {
	switch ent.class {
	case classAck:
		// Back on the sender's shard. A late or duplicate ack (flight
		// already completed) is ignored.
		if fl := n.inflight[ent.id]; fl != nil {
			fl.acked = true
			delete(n.inflight, ent.id)
		}
	case classDup:
		// An injected duplicate arriving at a down or partitioned receiver
		// vanishes silently — it was surplus wire noise, not an
		// accountable frame.
		if n.ms[ent.to].down || n.partitioned(ent.from, ent.to) {
			return
		}
		n.arrive(ent.from, ent.to, ent.m, ent.id)
	default: // classData
		if n.ms[ent.to].down {
			// Recoverable: no dedup record, no ack — the sender's timer
			// retries and a post-restart attempt can still deliver.
			n.stats.Dropped++
			return
		}
		n.arrive(ent.from, ent.to, ent.m, ent.id)
		// The ack for this attempt flows back through the same canonical
		// machinery (nil payload, zero cost: ack bytes are negligible and
		// not part of the paper's accounting).
		lostAck := arqDraw(n.seed, ent.id, ent.attempt, saltAck) < n.lossRate() ||
			n.partitioned(ent.from, ent.to)
		if !lostAck {
			n.arqEnqueue(pendEnt{
				at: n.eng.Now() + n.cfg.Latency,
				to: ent.from, from: ent.to, seq: ent.seq,
				class: classAck, attempt: ent.attempt, id: ent.id,
			})
		}
	}
}

// InflightARQ reports how many frames this shard's machines currently have
// in flight (un-acked, retries not exhausted). Zero at quiescence — the
// chaos invariant audit asserts this cluster-wide.
func (n *Network) InflightARQ() int { return len(n.inflight) }

// PendingFrames reports how many entries sit in this shard's canonical
// pending heap. Zero at quiescence.
func (n *Network) PendingFrames() int { return len(n.pend) }
