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
//     ride the canonical arrival calendar / gate pump (canon.go), ordered by
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
// The master is the envelope the sender submitted: it never leaves the
// sender's shard, and it goes back through its pool when the ack lands, or
// once, counted Dead, when MaxRetries run out. Every wire copy — first attempt,
// retransmission, or injected duplicate — is a copy of its own, so a
// retransmitting sender never shares a *msg.Message with the calendar of
// another shard. A copy comes out of the RECEIVING machine's pool when this
// engine delivers that machine, and out of the SENDING machine's pool when it
// crosses to another shard, where the receiver's release parks it until the
// barrier sends it home (msg.Pool.ReturnVia); an endpoint that lends no pool
// (bare test endpoints) gets a heap clone. Where the network consumes a wire
// copy itself — a duplicate suppressed in arrive, a copy landing on a down or
// partitioned receiver — it releases it explicitly.
//
// Every event the ARQ schedules does work: the ack cancels its flight's
// retransmission check and recycles the record on the spot, so a check fires
// only for an attempt that went unacknowledged. The steady-state round (send
// → wire copy → deliver → ack) allocates nothing and hashes nothing but the
// receiver's pair lookup.
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

// arqFlight is one frame in flight from a machine on this shard: a pooled
// record with its retransmission check bound once (fn), like the kernel's
// pending. It owns the master — the envelope the sender submitted — until the
// ack lands or retries run out, and at that moment leaves the sender's
// in-flight table and returns to the free list. A flight has exactly one
// netw:retrans-check outstanding at any time (ev) — only the check itself
// re-transmits — and the ack cancels it, so a check never fires for a
// finished flight and a stale check on a recycled record cannot exist.
type arqFlight struct {
	n        *Network
	from, to addr.MachineID
	m        *msg.Message // the master: the sender's own envelope
	size     int
	seq      uint64 // per-sender dense sequence (shard-invariant)
	attempt  uint32
	ev       sim.Event  // the outstanding check
	fn       func()     // bound once to check
	next     *arqFlight // free-list linkage
}

// frameID is the shard-invariant identity of sender from's seq-th frame,
// sender<<48|seq: the hash-draw key. Every calendar entry and shipped frame
// carries both halves, so none carries the id.
func frameID(from addr.MachineID, seq uint64) uint64 { return uint64(from)<<48 | seq }

func (fl *arqFlight) id() uint64 { return frameID(fl.from, fl.seq) }

// arqSender is one sending machine's in-flight table, direct-mapped by its
// dense sequence (tab[seq&mask]). It lives in an ARQ-only side table
// (Network.flights) so the lossless path's machine record does not grow.
type arqSender struct {
	tab []*arqFlight // len is a power of two, or 0 before the first send
}

// flightMinTable is a sender's initial in-flight table size.
const flightMinTable = 16

// put indexes fl, doubling the table while its slot is held by an older
// un-acked flight. Live flights have distinct sequences, so slots distinct
// at one size stay distinct at twice it and only fl's own slot can collide.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (s *arqSender) put(fl *arqFlight) {
	for len(s.tab) == 0 || s.tab[fl.seq&uint64(len(s.tab)-1)] != nil {
		s.grow()
	}
	s.tab[fl.seq&uint64(len(s.tab)-1)] = fl
}

func (s *arqSender) grow() {
	old := s.tab
	s.tab = make([]*arqFlight, max(flightMinTable, 2*len(old)))
	for _, fl := range old {
		if fl != nil {
			s.tab[fl.seq&uint64(len(s.tab)-1)] = fl
		}
	}
}

// take removes and returns the live flight with sequence seq, or nil if it
// has already finished (a late or duplicate ack).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (s *arqSender) take(seq uint64) *arqFlight {
	slot := &s.tab[seq&uint64(len(s.tab)-1)]
	fl := *slot
	if fl == nil || fl.seq != seq {
		return nil
	}
	*slot = nil
	return fl
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

// cloneFor copies m for the wire from machine from to machine to: out of
// to's envelope pool when this engine delivers to, out of from's when the
// copy crosses to another shard (it goes home at the barrier), onto the heap
// when that machine lends no pool. The lossless duplicate injector takes its
// copy the same way.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (n *Network) cloneFor(from, to addr.MachineID, m *msg.Message) *msg.Message {
	at := to
	if !n.isLocal(to) {
		at = from
	}
	if o := n.owner(at); o != nil {
		return o.FramePool().Clone(m)
	}
	return m.Clone()
}

// release recycles an envelope the network is done with — a wire copy it
// consumed itself, an acked master, a frame it abandoned — and the bounced
// original it may carry.
// Put sends it home, or parks it in this shard's return pool when its home is
// on another shard; heap messages pass through.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
//demos:releases m — the copy is dead on every path after it.
func (n *Network) release(m *msg.Message) {
	n.ret.Put(m.Orig)
	n.ret.Put(m)
}

// canonSendARQ submits one frame to the machine-anchored retransmission
// machinery. The submitted envelope is the flight's master: it stays on the
// sender's shard, every wire copy is cloned from it, and the ack releases it
// through the sender's pool, so the pooled fast path and the lossy network
// are not mutually exclusive. An injected duplicate reuses the frame id,
// exercising receiver dedup rather than user-visible duplication.
//
//demos:hotpath — allocation-free once the flight pool, the sender's table and the envelope pools are warm: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq and BenchmarkNetwSendARQ in bench_hotpath_test.go.
//demos:owner inflight — the flight owns the master (the sender's envelope) until the ack releases it or MaxRetries abandon it; every enqueued wire copy is owned by a shard's calendar.
func (n *Network) canonSendARQ(from, to addr.MachineID, m *msg.Message, size int, extra sim.Time, dup bool) {
	fm := n.mach(from)
	fm.seq++
	fl := n.flightFree
	if fl != nil {
		n.flightFree, fl.next = fl.next, nil
	} else {
		fl = &arqFlight{n: n}
		fl.fn = fl.check
	}
	fl.from, fl.to, fl.m, fl.size, fl.seq, fl.attempt = from, to, m, size, fm.seq, 0
	if grow := int(from) + 1 - len(n.flights); grow > 0 {
		n.flights = append(n.flights, make([]arqSender, grow)...)
	}
	n.flights[from].put(fl)
	n.inflight++
	n.arqTransmit(fl, extra)
	if dup {
		n.arqEnqueue(pendEnt{
			at: n.eng.Now() + n.TransitTime(size) + extra + 1,
			to: to, from: from, seq: fl.seq,
			class: classDup, m: n.cloneFor(from, to, m),
		})
	}
}

// arqTransmit is one attempt: decide the frame's fate by hash draw, enqueue
// a copy for canonical delivery if it survives, and arm the retransmission
// check on the sender's own engine. The receiver's down state is NOT
// consulted here — it lives on the receiver's shard and is checked at
// arrival (arqLand); a frame to a crashed machine burns retries until it
// restarts or they run out.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (n *Network) arqTransmit(fl *arqFlight, extra sim.Time) {
	if fl.attempt > 0 {
		n.stats.Retransmits++
	}
	lost := arqDraw(n.seed, fl.id(), fl.attempt, saltFrame) < n.lossRate() ||
		n.partitioned(fl.from, fl.to)
	if lost {
		n.stats.Dropped++
	} else {
		fl.m.Hops++
		n.arqEnqueue(pendEnt{
			at: n.eng.Now() + n.TransitTime(fl.size) + extra,
			to: fl.to, from: fl.from, seq: fl.seq,
			class: classData, attempt: fl.attempt,
			m: n.cloneFor(fl.from, fl.to, fl.m),
		})
	}
	fl.ev = n.eng.After(n.cfg.RetransTimeout+extra, "netw:retrans-check", fl.fn)
}

// check is the flight's one outstanding netw:retrans-check. It fires only
// for an unacknowledged attempt (the ack cancels it): retransmit, or after
// MaxRetries count it Dead, release the master, exactly once, and retire.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (fl *arqFlight) check() {
	n := fl.n
	if int(fl.attempt)+1 < n.cfg.MaxRetries {
		fl.attempt++
		n.arqTransmit(fl, 0)
		return
	}
	n.stats.Dead++
	n.flights[fl.from].take(fl.seq)
	n.release(fl.m)
	n.retireFlight(fl)
}

// retireFlight returns a finished flight's record to the free list.
func (n *Network) retireFlight(fl *arqFlight) {
	n.inflight--
	fl.m = nil
	fl.next, n.flightFree = n.flightFree, fl
}

// arqEnqueue routes one ARQ entry: into this shard's calendar when the
// destination is local, across the cluster's outbox plane otherwise.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
//demos:owner inflight — the calendar (this shard's or, via ship, the destination shard's) owns the entry's wire copy — from the receiver's pool when local, the sender's when shipped — until arqLand delivers or releases it.
func (n *Network) arqEnqueue(ent pendEnt) {
	if n.isLocal(ent.to) {
		if n.pendPush(ent) {
			n.eng.AtGate(ent.at, "netw:pump", n.pumpFn)
		}
		return
	}
	n.ship(RemoteFrame{
		From: ent.from, To: ent.to, At: ent.at, Seq: ent.seq,
		Class: ent.class, Attempt: ent.attempt, M: ent.m,
	})
}

// arqLand consumes one calendar entry on the destination's shard: the
// ARQ-mode pump dispatch. A wire copy that is not handed to the receiver is
// released here (or in arrive).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (n *Network) arqLand(ent pendEnt) {
	switch ent.class {
	case classAck:
		// Back on the sender's shard (ent.to is the sender). The flight
		// leaves the table, its check is cancelled, its master released and
		// its record recycled, all now. A late or duplicate ack — flight
		// finished, record possibly recycled under a newer sequence — finds
		// nothing.
		if fl := n.flights[ent.to].take(ent.seq); fl != nil {
			n.eng.Cancel(fl.ev)
			n.release(fl.m)
			n.retireFlight(fl)
		}
	case classDup:
		// An injected duplicate arriving at a down or partitioned receiver
		// vanishes silently — it was surplus wire noise, not an
		// accountable frame.
		if n.ms[ent.to].down || n.partitioned(ent.from, ent.to) {
			n.release(ent.m)
			return
		}
		n.arrive(ent.from, ent.to, ent.m, ent.seq)
	default: // classData
		if n.ms[ent.to].down {
			// Recoverable: no dedup record, no ack — the sender's timer
			// retries and a post-restart attempt can still deliver.
			n.stats.Dropped++
			n.release(ent.m)
			return
		}
		n.arrive(ent.from, ent.to, ent.m, ent.seq)
		// The ack for this attempt flows back through the same canonical
		// machinery (nil payload, zero cost: ack bytes are negligible and
		// not part of the paper's accounting).
		lostAck := arqDraw(n.seed, frameID(ent.from, ent.seq), ent.attempt, saltAck) < n.lossRate() ||
			n.partitioned(ent.from, ent.to)
		if !lostAck {
			n.arqEnqueue(pendEnt{
				at: n.eng.Now() + n.cfg.Latency,
				to: ent.from, from: ent.to, seq: ent.seq,
				class: classAck, attempt: ent.attempt,
			})
		}
	}
}

// InflightARQ reports how many frames this shard's machines currently have
// in flight (un-acked, retries not exhausted). Zero at quiescence — the
// chaos invariant audit asserts this cluster-wide.
func (n *Network) InflightARQ() int { return n.inflight }

// PendingFrames reports how many frames wait in this shard's canonical
// arrival calendar. Zero at quiescence.
func (n *Network) PendingFrames() int { return n.pendN }
