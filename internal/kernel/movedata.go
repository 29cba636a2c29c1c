package kernel

import (
	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// This file implements the move-data facility (§2.2): large transfers are
// streamed as a sequence of data packets "sent to the receiving kernel in a
// continuous stream. The receiving kernel acknowledges each packet (but the
// sending kernel does not have to wait for the acknowledgement to send the
// next packet)." (§6)
//
// Two packet addressing modes exist:
//
//   - Packets addressed to a kernel (reads, migration region pulls) are
//     reassembled into an inStream registered under the receiver-allocated
//     transfer id.
//   - Packets addressed to a process with DELIVERTOKERNEL (writes into a
//     link's data area) carry absolute image offsets in Seq and are applied
//     statelessly on arrival. Statelessness is what keeps writes correct
//     across a concurrent migration of the area's owner: packets held on
//     the frozen process's queue are forwarded with everything else and
//     simply apply at the new machine. Completion, however, is decided by
//     the *writer's* kernel from the per-packet acks — never by the owner
//     seeing the Last packet, which can overtake earlier (bigger) packets
//     through a forwarding address.

// inStream reassembles an inbound byte stream. A stream serves one of two
// masters: a migration region pull is the stream its record embeds, sets mg
// and dispatches straight into the migration state machine on completion; a
// data-area read allocates its stream and sets the complete/fail closures.
type inStream struct {
	buf   []byte
	bytes int
	total int // -1 until the Last packet arrives

	// Migration region pulls (hot): reassemble into the record's buffer for
	// the region mg.step names and dispatch to regionArrived without a
	// per-pull closure.
	mg *migration

	// Data-area reads (cold): completion callbacks.
	complete func(data []byte)
	fail     func()
}

// moveOp tracks an outbound data-area write awaiting acknowledgement of
// every packet. Completion is decided HERE, on the writer's kernel — the
// one party guaranteed not to migrate mid-stream — because packets to a
// migrating owner may be applied on different machines and may arrive out
// of order through forwarding addresses (a smaller last packet can overtake
// a bigger first one). Only when every packet has been acked from wherever
// it was applied is the write reported complete.
type moveOp struct {
	initiator addr.ProcessID
	userXfer  uint16
	packets   int
	base      uint32   // Seq of the stream's first packet
	pkt       int      // packet stride (cfg.DataPacket at stream start)
	acked     []uint64 // bitset, one bit per packet
	ackCount  int
}

// streamOut sends data to another machine's kernel as a paced packet
// stream. Used for data-area reads; migration region pulls go through
// streamGather directly.
func (k *Kernel) streamOut(to addr.MachineID, xfer uint16, data []byte) {
	vecs := [1][]byte{data}
	k.streamGather(addr.KernelAddr(to), false, xfer, 0, vecs[:])
}

// streamWrite sends data addressed to a process's kernel (DELIVERTOKERNEL)
// with absolute image offsets, for data-area writes.
func (k *Kernel) streamWrite(owner addr.ProcessAddr, xfer uint16, imageOff uint32, data []byte) int {
	vecs := [1][]byte{data}
	n, _ := k.streamGather(owner, true, xfer, imageOff, vecs[:])
	return n
}

// streamGather is the vectored packetizer: it streams the concatenation of
// vecs without ever materializing it, filling each pooled envelope's body
// directly from as many vectors as one packet spans. Wire output — packet
// sizes, Seq offsets, pacing, Last marker — is byte-identical to streaming
// the equivalent single buffer. It returns the packet count and how long
// from now the last packet leaves.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) streamGather(to addr.ProcessAddr, dtk bool, xfer uint16, baseOff uint32, vecs [][]byte) (int, sim.Time) {
	pkt := k.cfg.DataPacket
	total := 0
	for _, v := range vecs {
		total += len(v)
	}
	n := (total + pkt - 1) / pkt
	if n == 0 {
		n = 1 // empty stream still needs its Last packet
	}
	// Pace packets at the line's serialization rate so a big transfer
	// occupies the network for a realistic duration.
	gap := k.net.TransitTime(pkt+msg.HeaderWireSize) - k.net.TransitTime(0)
	if gap == 0 {
		gap = 1
	}
	vi, vo, off := 0, 0, 0
	for i := 0; i < n; i++ {
		want := pkt
		if off+want > total {
			want = total - off
		}
		m := k.getMsg()
		m.Kind = msg.KindData
		m.From = addr.KernelAddr(k.machine)
		m.To = to
		m.DTK = dtk
		m.Xfer = xfer
		m.Seq = baseOff + uint32(off)
		m.Last = i == n-1
		b := m.Body[:0]
		for want > 0 && vi < len(vecs) {
			if vo == len(vecs[vi]) {
				vi++
				vo = 0
				continue
			}
			take := len(vecs[vi]) - vo
			if take > want {
				take = want
			}
			b = append(b, vecs[vi][vo:vo+take]...)
			vo += take
			want -= take
		}
		m.Body = b
		off += len(b)
		k.cold().DataPacketsSent++
		k.cold().DataBytesSent += uint64(len(b))
		k.eng.After(gap*sim.Time(i), "kernel:data-packet", k.getPending(m, true).fn)
	}
	return n, gap * sim.Time(n-1)
}

// handleDataPacket processes an arriving KindData frame. A packet of a
// migration region is progress of that migration: a region that takes
// longer than MigrateTimeout to stream must not time out on a healthy link.
//
// Zero-copy region handoff: when a whole stream fits in one pooled packet
// (Seq 0, Last, nothing assembled yet), the stream adopts the envelope's
// body wholesale and gives the envelope its own backing in exchange — the
// one place the "handlers must not retain Body" contract is traded for an
// ownership swap, which the immediately-following putMsg in deliverLocal
// makes safe (the envelope re-enters the pool with the swapped backing, so
// pool conservation is unchanged). A packet from another shard is a pooled
// envelope too, and its swapped backing goes home with it at the barrier. On
// a lossy network the packet is a wire copy the ARQ drew from this kernel's
// own pool (across a shard, from the sender's) and takes the same handoff:
// a copy's body is its envelope's private backing array (msg.Pool.Clone
// copies into it, never aliases the master the flight keeps for
// retransmission), so the stream adopts memory nobody else can reach, and a
// retransmitted duplicate is a fresh copy that dedup suppresses. Only a heap
// message skips the swap.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) handleDataPacket(m *msg.Message) {
	k.ack(m)
	if !m.To.ID.IsKernel() {
		k.applyWritePacket(m)
		return
	}
	xs := k.coldView().xfersIn
	st, ok := xs[m.Xfer]
	if !ok {
		k.trace(siteStrayPacket, "", trace.Int(int(m.Xfer)), trace.Int(int(m.Seq)))
		return
	}
	if st.mg != nil {
		k.progress(st.mg)
	}
	n := len(m.Body)
	end := int(m.Seq) + n
	switch {
	case m.Last && m.Seq == 0 && st.bytes == 0 && m.Pooled():
		st.buf, m.Body = m.Body, st.buf[:0] //demos:owner stream — zero-copy donation: the stream keeps the packet's backing array and the envelope leaves with the stream's empty one.
	case end <= cap(st.buf):
		if end > len(st.buf) {
			st.buf = st.buf[:end]
		}
		copy(st.buf[m.Seq:], m.Body)
	default:
		grown := make([]byte, end)
		copy(grown, st.buf)
		st.buf = grown
		copy(st.buf[m.Seq:], m.Body)
	}
	st.bytes += n
	if m.Last {
		st.total = end
	}
	if st.total >= 0 && st.bytes >= st.total {
		delete(xs, m.Xfer)
		if data := st.buf[:st.total]; st.mg != nil {
			k.regionArrived(st.mg, data) // data becomes a region buffer; the next pull resets st
		} else {
			st.complete(data) // which may keep data
		}
	}
}

// applyWritePacket applies a data-area write statelessly to the target
// process's image. Completion is signalled by the acks, not here: this
// packet may be one of several applied on different machines if the owner
// migrated mid-stream.
func (k *Kernel) applyWritePacket(m *msg.Message) {
	p := k.lookup(m.To.ID)
	if p != nil && p.image != nil {
		if err := p.image.WriteAt(m.Body, int(m.Seq)); err != nil {
			k.trace(siteWriteFault, err.Error())
		}
	}
}

// ack acknowledges one data packet to the sending kernel. The DTK flag is
// copied so the sender can tell write-stream acks (which drive moveOp
// completion) from read/migration-stream acks.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) ack(m *msg.Message) {
	k.cold().AcksSent++
	a := k.getMsg()
	a.Kind = msg.KindAck
	a.From = addr.KernelAddr(k.machine)
	a.To = m.From
	a.DTK = m.DTK
	a.Xfer = m.Xfer
	a.Seq = m.Seq
	k.route(a)
}

// handleAck counts an acknowledgement and, for write streams, advances the
// owning moveOp — sending the completion to the initiating process once
// every packet of the stream has been applied somewhere. Acked packets are
// tracked in a per-op bitset indexed by (Seq-base)/stride rather than a
// map, so a steady write stream acknowledges without touching the heap.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) handleAck(m *msg.Message) {
	c := k.cold()
	c.AcksReceived++
	if !m.DTK {
		return
	}
	op, ok := c.moveOps[m.Xfer]
	if !ok || m.Seq < op.base {
		return
	}
	d := int(m.Seq - op.base)
	if op.pkt <= 0 || d%op.pkt != 0 {
		return
	}
	idx := d / op.pkt
	if idx >= op.packets {
		return
	}
	w, bit := idx/64, uint64(1)<<(idx%64)
	if op.acked[w]&bit != 0 {
		return
	}
	op.acked[w] |= bit
	op.ackCount++
	if op.ackCount < op.packets {
		return
	}
	delete(c.moveOps, m.Xfer)
	done := k.newControl(msg.OpMoveWriteDone, addr.At(op.initiator, k.machine))
	done.Body = msg.XferStatus{Xfer: op.userXfer, OK: true}.AppendTo(done.Body[:0])
	k.route(done)
}

// handleMoveRead serves a data-area read: stream the requested window of
// the owner's image back to the requesting kernel.
func (k *Kernel) handleMoveRead(m *msg.Message) {
	req, err := msg.DecodeMoveRead(m.Body)
	if err != nil {
		return
	}
	p := k.lookup(req.PID)
	if p == nil || p.image == nil {
		k.failMoveRead(m.From, req.Xfer)
		return
	}
	data := make([]byte, req.Len)
	if err := p.image.ReadAt(data, int(req.AreaOff+req.Off)); err != nil {
		k.trace(siteReadFault, err.Error())
		k.failMoveRead(m.From, req.Xfer)
		return
	}
	k.streamOut(m.From.LastKnown, req.Xfer, data)
}

func (k *Kernel) failMoveRead(to addr.ProcessAddr, xfer uint16) {
	m := k.newControl(msg.OpMoveReadDone, to)
	m.Body = msg.XferStatus{Xfer: xfer, OK: false}.AppendTo(m.Body[:0])
	k.route(m)
}

// handleMoveReadFailed cancels a pending inbound stream (the owner refused
// or faulted) and notifies the initiating process.
func (k *Kernel) handleMoveReadFailed(m *msg.Message) {
	st, err := msg.DecodeXferStatus(m.Body)
	if err != nil {
		return
	}
	xs := k.coldView().xfersIn
	if in := xs[st.Xfer]; in != nil {
		delete(xs, st.Xfer)
		if in.fail != nil {
			in.fail()
		}
	}
}
