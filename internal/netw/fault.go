// Fault-injection plane for the network (see internal/chaos for the
// scenario driver). Everything here is cold-path: Send tests one boolean
// (n.faulty) and otherwise never enters this file, which is what keeps the
// hotpath zero-alloc guards passing with the fault plane compiled in.
//
// Accounting contract: a frame the network abandons is never silently lost.
// The code that abandons it counts it once, in the one netw.Stats counter
// that names the cause (SendFromDown, PartitionDropped, BurstDropped, Dead or
// OrphanDropped), and releases its envelope on the spot through
// Network.release, so cluster-wide loss budgets and pooled-envelope ledgers
// balance after a chaos run. The sender's kernel is never told.
package netw

import (
	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// FrameOwner is the pool-lending interface a machine's endpoint may
// implement (kernels do). FramePool lends the machine's envelope pool to the
// network: the ARQ (arq.go) and the duplicate injector draw wire copies from
// it — the receiver's pool on its own shard, the sender's across shards — and
// on a shard it joins the shard's return pool (SetCanonical), where a release
// on this shard parks envelopes of other shards' pools until the barrier.
// An endpoint that is not a FrameOwner gets heap clones instead.
//
// An envelope is dead to its sender once Send returns: the network may
// already have released it, and the sender never hears of a frame the
// network abandons.
type FrameOwner interface {
	FramePool() *msg.Pool
}

// owner returns the FrameOwner attached here as machine m, if any.
func (n *Network) owner(m addr.MachineID) FrameOwner {
	if int(m) < len(n.ms) {
		return n.ms[m].owner
	}
	return nil
}

// dropToDown accounts a lossless frame arriving at a down machine. The loss
// is final and is an orphan drop: the frame is counted and its envelope
// released on the spot, like every frame the network abandons. Echoing the
// loss back would reach only a sender on the receiver's own shard, making
// the sender's behaviour depend on the sharding; the kernels' own timeouts
// carry liveness instead. (With an ARQ, arqLand checks the receiver first
// and the retransmit/dead path owns the accounting.)
func (n *Network) dropToDown(to addr.MachineID, m *msg.Message) {
	n.stats.Dropped++
	n.stats.OrphanDropped++
	n.release(m)
}

// normPair returns the order-normalized key for a bidirectional pair.
func normPair(a, b addr.MachineID) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Partition severs the pair (a,b) in both directions. With an ARQ
// (LossRate > 0) frames queue as retransmissions and flow again after Heal,
// unless MaxRetries expires first; in lossless mode the loss is final and
// fully accounted (PartitionDropped, the envelope released at once).
func (n *Network) Partition(a, b addr.MachineID) {
	n.parts[normPair(a, b)] = struct{}{}
	n.refault()
}

// Heal reconnects a pair severed by Partition.
func (n *Network) Heal(a, b addr.MachineID) {
	delete(n.parts, normPair(a, b))
	n.refault()
}

func (n *Network) partitioned(from, to addr.MachineID) bool {
	if len(n.parts) == 0 {
		return false
	}
	_, cut := n.parts[normPair(from, to)]
	return cut
}

// LossBurst raises the frame-loss probability to rate until the given sim
// time (a noisy interval). In lossless mode burst losses are final and
// accounted; with an ARQ they surface as extra retransmissions.
func (n *Network) LossBurst(rate float64, until sim.Time) {
	n.burstRate, n.burstEnd = rate, until
	n.refault()
}

// DuplicateNext injects a duplicate wire copy for the next count frames
// sent from->to. With an ARQ the duplicate carries the same frame id and is
// suppressed by receiver dedup; in lossless mode the receiver genuinely
// sees the message twice (there is no dedup layer to test against).
func (n *Network) DuplicateNext(from, to addr.MachineID, count int) {
	if count <= 0 {
		delete(n.dupNext, pair{from, to})
	} else {
		n.dupNext[pair{from, to}] = count
	}
	n.refault()
}

// DelayNext adds extra transit time to the next frame sent from->to, so a
// later frame can overtake it (reorder injection).
func (n *Network) DelayNext(from, to addr.MachineID, extra sim.Time) {
	if extra <= 0 {
		delete(n.delayNext, pair{from, to})
	} else {
		n.delayNext[pair{from, to}] = extra
	}
	n.refault()
}

// refault recomputes the hot-path guard: true only while some injected
// condition could still alter a send.
func (n *Network) refault() {
	n.faulty = len(n.parts) > 0 || n.burstEnd > n.eng.Now() ||
		len(n.dupNext) > 0 || len(n.delayNext) > 0
}

// sendFaulty is the slow-path Send taken while any fault is armed. It
// re-derives which injections apply to this frame and then follows the
// normal lossless or ARQ route with the injections folded in.
func (n *Network) sendFaulty(from, to addr.MachineID, m *msg.Message) {
	n.refault() // self-clear once expired bursts/one-shots are gone
	size := m.WireSize()
	n.account(from, to, m, size)

	key := pair{from, to}
	var extra sim.Time
	if d, ok := n.delayNext[key]; ok {
		delete(n.delayNext, key)
		n.stats.DelayInjected++
		extra = d
	}
	dup := false
	if c, ok := n.dupNext[key]; ok {
		if c <= 1 {
			delete(n.dupNext, key)
		} else {
			n.dupNext[key] = c - 1
		}
		n.stats.DupInjected++
		dup = true
	}

	if n.arqOn {
		n.canonSendARQ(from, to, m, size, extra, dup)
		return
	}

	// Lossless mode: no retransmission exists, so a severed or lost frame
	// is gone for good — count it and release the envelope.
	if n.partitioned(from, to) {
		n.stats.Dropped++
		n.stats.PartitionDropped++
		n.release(m)
		return
	}
	if n.burstEnd > n.eng.Now() {
		// Shard-count invariance: the drop must be a pure function of the
		// frame's identity (sender, per-sender sequence), never of a
		// per-shard engine RNG stream. A dropped frame consumes its
		// sequence number so the next frame from this sender draws fresh
		// (seq stays shard-invariant either way: machine m's k-th send
		// attempt is its k-th under any sharding).
		fm := n.mach(from)
		if arqDraw(n.seed, uint64(from)<<48|(fm.seq+1), 0, saltFrame) < n.burstRate {
			fm.seq++
			n.stats.Dropped++
			n.stats.BurstDropped++
			n.release(m)
			return
		}
	}
	// The copy for a duplicate is taken before canonSend consumes (files or
	// ships) the original, and each copy earns its own Hops++ inside
	// canonSend.
	var dm *msg.Message
	if dup {
		dm = n.cloneFor(from, to, m)
	}
	n.canonSend(from, to, m, size, extra)
	if dup {
		n.canonSend(from, to, dm, size, extra+1)
	}
}
