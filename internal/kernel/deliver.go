package kernel

import (
	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/trace"
)

// route submits a message to the delivery system. The destination machine
// is the (possibly stale) last-known-machine hint in the process address;
// staleness is repaired downstream by forwarding addresses (§4).
//
// Envelope ownership transfers with the message: route's caller gives up
// the envelope, and exactly one downstream consumer releases it via
// putMsg. The envelope is dead to the caller once route returns: a frame
// shipped to another shard has already gone back to its pool, zeroed. So
// route counts as a release for demoslint's ownership rule, which reports a
// read of the envelope after it; DESIGN.md §8.1 says which half of the
// contract the rule checks and which the run time does. The blessed holding
// points — mailbox, pending, bounce, locate, stream — are declared with
// //demos:owner.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
//demos:releases m — the envelope is dead to the caller once route returns.
func (k *Kernel) route(m *msg.Message) {
	if k.crashed {
		k.dropCrashed(m)
		return
	}
	k.stats.MsgsRouted++
	if m.SentAt == 0 {
		m.SentAt = k.eng.Now()
	}
	if m.To.LastKnown == k.machine {
		k.eng.After(LocalLatency, "kernel:local-deliver", k.getPending(m, false).fn)
		return
	}
	k.net.Send(k.machine, m.To.LastKnown, m)
}

// DeliverFrame implements netw.Endpoint.
func (k *Kernel) DeliverFrame(m *msg.Message) {
	if k.crashed {
		k.dropCrashed(m)
		return
	}
	k.deliverLocal(m)
}

// deliverLocal is the paper's "normal message delivery system tries to find
// a process when a message arrives for it" (§3.1 step 7). Messages the
// kernel consumes here are released back to the envelope pool; messages
// that keep flowing (forwarded, enqueued, held) are not.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) deliverLocal(m *msg.Message) {
	if m.To.ID.IsKernel() {
		k.kernelMsg(m)
		k.putMsg(m)
		return
	}
	p := k.lookup(m.To.ID)
	if p == nil {
		if f, ok := k.coldView().fwds[m.To.ID]; ok {
			k.forward(f, m)
		} else {
			k.unknownProcess(m)
		}
		return
	}
	switch p.state {
	case StateInMigration, StateIncoming:
		// §3.1 step 1: "Messages arriving for the migrating process,
		// including DELIVERTOKERNEL messages, will be placed on its
		// message queue."
		p.queueHighWater = max(p.queueHighWater, p.queue.push(m))
		k.stats.MsgsHeld++
	default:
		if m.DTK {
			// §2.2: "on arrival at the destination process's message
			// queue, the message is received by the kernel on that
			// processor."
			k.kernelMsg(m)
			k.putMsg(m)
			return
		}
		k.enqueue(p, m)
	}
}

// enqueue places a message on a process's queue and wakes it if waiting.
// The message is released after the receiving body's next Step returns
// (see runSlice), since the Delivery handed out by Recv aliases its Body.
// A fired timer that matches the kernel's shared mark (msg.Pool.TimerMark),
// which holds all Recv reads of it, is released here instead and waits as
// the mark: a job queued behind a busy CPU keeps no envelope. A mark is only
// ever read where it is consumed; the two paths that move a queued message
// on call unmark.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) enqueue(p *Process, m *msg.Message) {
	if k.hLat != nil {
		k.hLat.Observe(uint64(k.eng.Now() - m.SentAt))
	} else if k.observed {
		k.observeFirstLatency(uint64(k.eng.Now() - m.SentAt))
	}
	if m.Op == msg.OpTimer && m.Kind == msg.KindControl && len(m.Body) == 2 {
		m = k.markTimer(m)
	}
	p.queueHighWater = max(p.queueHighWater, p.queue.push(m))
	p.msgsIn++
	k.stats.MsgsEnqueued++
	if p.state == StateWaiting {
		k.enqueueRun(p)
	}
}

// markTimer returns what the fired timer m waits as on its queue: the
// kernel's mark (msg.Pool.TimerMark) when it stands for m, in which case
// m's envelope goes back to the pool, and m itself when it does not. Out of
// line, like observeFirstLatency: enqueue's path for every other message
// stays one compare.
//
//go:noinline
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
//demos:releases m — the envelope goes back to the pool when the mark replaces it.
func (k *Kernel) markTimer(m *msg.Message) *msg.Message {
	mark := k.pool.TimerMark(m)
	if mark != m {
		k.putMsg(m)
	}
	return mark
}

// unmark returns m, taken off p's queue to be sent on, as an envelope: a
// timer mark becomes a new one addressed to p (the mark names no
// destination, and it is shared, so it is never written or sent), anything
// else is m itself. The new envelope's SentAt is now: the mark keeps none.
func (k *Kernel) unmark(p *Process, m *msg.Message) *msg.Message {
	if !m.IsMark() {
		return m
	}
	e := k.newControl(msg.OpTimer, addr.At(p.id, k.machine))
	e.From = m.From
	e.Body = append(e.Body[:0], m.Body...)
	return e
}

// forward re-routes a message through a forwarding address (§4, Figure
// 4-1): "the machine address of the message is updated and the message is
// resubmitted to the message delivery system. As a byproduct of forwarding,
// an attempt may be made to fix up the link of the sending process."
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) forward(f fwd, m *msg.Message) {
	m.To.LastKnown = f.to
	m.Forwards++
	k.cold().Forwarded++
	k.trace(siteForward, "", trace.Name(m.Kind), trace.PID(m.To.ID), trace.Machine(f.to), trace.Int(int(m.Forwards)))
	k.ledgerForward(f.rec, m)
	// m is dead once route returns, so read what the update needs first; it
	// is still sent after the forward, keeping the order of sends.
	update, sender, migrated := k.shouldSendLinkUpdate(m), m.From, m.To.ID
	k.route(m)
	if update {
		k.sendLinkUpdate(sender, migrated, f.to)
	}
}

// shouldSendLinkUpdate filters which forwards generate the §5 update
// message: only traffic that originated from a process's link (user
// messages and process-manager control sends), never kernel-internal
// streams or the update messages themselves.
func (k *Kernel) shouldSendLinkUpdate(m *msg.Message) bool {
	if m.From.ID.IsKernel() || m.From.ID.IsNil() {
		return false
	}
	switch m.Kind {
	case msg.KindUser, msg.KindControl:
		return true
	default:
		return false
	}
}

// sendLinkUpdate emits the special message of §5 to the kernel of the
// process that sent the forwarded message. It is addressed to the sender's
// process address with DELIVERTOKERNEL semantics, so it chases a sender
// that has itself migrated.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) sendLinkUpdate(sender addr.ProcessAddr, migrated addr.ProcessID, newMachine addr.MachineID) {
	u := msg.LinkUpdate{Sender: sender.ID, Migrated: migrated, Machine: newMachine}
	m := k.getMsg()
	m.Kind = msg.KindLinkUpdate
	m.From = addr.KernelAddr(k.machine)
	m.To = sender
	m.DTK = true
	m.Body = u.AppendTo(m.Body[:0])
	k.cold().LinkUpdatesSent++
	k.trace(siteLinkUpdateSent, "", trace.PID(sender.ID), trace.PID(migrated), trace.Machine(newMachine))
	k.route(m)
}

// applyLinkUpdate rewrites the sender's link table (§5): "All links in the
// sending process's link table that point to the migrated process are then
// updated to point to the new location."
func (k *Kernel) applyLinkUpdate(m *msg.Message) {
	u, err := msg.DecodeLinkUpdate(m.Body)
	if err != nil {
		k.trace(siteLinkUpdateBad, err.Error())
		return
	}
	k.cold().LinkUpdatesApplied++
	p := k.lookup(u.Sender)
	if p == nil {
		return // sender gone; nothing to fix
	}
	n := p.links.UpdateAddr(u.Migrated, u.Machine)
	k.cold().LinksFixed += uint64(n)
	if n > 0 {
		k.trace(siteLinkUpdateApplied, "", trace.Int(n),
			trace.PID(u.Sender), trace.PID(u.Migrated), trace.Machine(u.Machine))
	}
}

// applyEagerUpdate handles the broadcast-update ablation: every kernel
// rewrites every local link table at migration time.
func (k *Kernel) applyEagerUpdate(m *msg.Message) {
	u, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	fixed := 0
	for _, p := range k.sortedProcs() {
		fixed += p.links.UpdateAddr(u.PID, u.Machine)
	}
	k.cold().LinksFixed += uint64(fixed)
	k.trace(siteEagerApplied, "", trace.Int(fixed), trace.PID(u.PID), trace.Machine(u.Machine))
}

// unknownProcess handles a message whose target does not exist here:
// either the process terminated (dead letter) or — in the return-to-sender
// baseline — it migrated away without leaving a forwarding address.
func (k *Kernel) unknownProcess(m *msg.Message) {
	if k.cfg.Mode == ModeReturnToSender && k.shouldSendLinkUpdate(m) {
		k.bounce(m) // m lives on as the bounce's Orig
		return
	}
	if k.coldView().Restarts > 0 && k.searchFallback(m) {
		return // rerouted or held by the post-crash search (restart.go)
	}
	k.stats.DeadLetters++
	k.trace(siteDeadLetter, "", trace.Name(m.Kind), trace.PID(m.To.ID))
	k.putMsg(m)
}

// bounce implements the §4 alternative: "return messages to their senders
// as not deliverable... The sending kernel can attempt to find the new
// location of the process, perhaps by notifying the process manager."
func (k *Kernel) bounce(m *msg.Message) {
	k.cold().Bounced++
	k.trace(siteBounce, "", trace.Name(m.Kind), trace.PID(m.To.ID), trace.Machine(m.From.LastKnown))
	nd := k.getMsg()
	nd.Kind = msg.KindControl
	nd.Op = msg.OpNotDeliverable
	nd.From = addr.KernelAddr(k.machine)
	nd.To = addr.KernelAddr(m.From.LastKnown)
	nd.Orig = m //demos:owner bounce — the NotDeliverable envelope carries the original back to its sender; handleNotDeliverable releases both.
	k.route(nd)
}

// handleNotDeliverable runs on the sending kernel: hold the message, ask
// the process manager where the process went, resend on reply. The per-PID
// hold buffer is bounded: past PendingLocateCap the oldest intent is
// preserved and the newcomer is dropped (counted in LocateDropped), so a
// sender spamming a dead PID cannot grow kernel memory without limit.
func (k *Kernel) handleNotDeliverable(m *msg.Message) {
	orig := m.Orig
	if orig == nil {
		return
	}
	pid := orig.To.ID
	if k.pmLink.IsNil() {
		// Nobody to ask: the message is undeliverable for good. Holding
		// it would leak an envelope per bounce.
		k.stats.DeadLetters++
		k.putMsg(orig)
		return
	}
	c := k.cold()
	if len(c.pendingLocate[pid]) >= PendingLocateCap {
		c.LocateDropped++
		k.stats.DeadLetters++
		k.putMsg(orig)
		return
	}
	if c.pendingLocate == nil {
		c.pendingLocate = make(map[addr.ProcessID][]*msg.Message)
	}
	c.pendingLocate[pid] = append(c.pendingLocate[pid], orig) //demos:owner locate — held (capped) until the locate reply resubmits or dead-letters it.
	if len(c.pendingLocate[pid]) > 1 {
		return // locate already outstanding
	}
	c.LocateRequests++
	req := k.getMsg()
	req.Kind = msg.KindControl
	req.Op = msg.OpLocate
	req.From = addr.KernelAddr(k.machine)
	req.To = k.pmLink.Addr
	req.Body = addr.EncodePID(req.Body[:0], pid)
	k.route(req)
}

// handleLocateReply resends held messages to the located machine and fixes
// local senders' links.
func (k *Kernel) handleLocateReply(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	pl := k.coldView().pendingLocate
	held := pl[pm.PID]
	delete(pl, pm.PID)
	if pm.Machine == addr.NoMachine {
		k.stats.DeadLetters += uint64(len(held))
		for _, orig := range held {
			k.putMsg(orig)
		}
		return
	}
	for _, orig := range held {
		orig.To.LastKnown = pm.Machine
		// One resubmission per message: if the located machine turns out
		// not to know the pid either (e.g. it crashed again), the message
		// dead-letters instead of re-entering the search loop.
		orig.Searched = true
		if p := k.lookup(orig.From.ID); p != nil {
			k.cold().LinksFixed += uint64(p.links.UpdateAddr(pm.PID, pm.Machine))
		}
		k.cold().Resubmitted++
		k.route(orig)
	}
}

// sendDeathNoticeTo starts (or continues) the §4 garbage collection of
// forwarding addresses "by means of pointers backwards along the path of
// migration".
func (k *Kernel) sendDeathNoticeTo(pid addr.ProcessID, to addr.MachineID) {
	m := k.getMsg()
	m.Kind = msg.KindControl
	m.Op = msg.OpDeathNotice
	m.From = addr.KernelAddr(k.machine)
	m.To = addr.KernelAddr(to)
	m.Body = msg.PIDMachine{PID: pid, Machine: k.machine}.AppendTo(m.Body[:0])
	k.route(m)
}

func (k *Kernel) handleDeathNotice(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	f, ok := k.coldView().fwds[pm.PID]
	if err != nil || !ok || k.lookup(pm.PID) != nil {
		return // a live record wins: the address it shadows goes at step 8
	}
	c := k.cold()
	delete(c.fwds, pm.PID)
	delete(c.runs, pm.PID)
	c.ForwardersReclaimed++
	c.ForwarderBytes -= ForwarderWireSize
	k.trace(siteFwdReclaimed, "", trace.PID(pm.PID))
	if f.back != addr.NoMachine {
		k.sendDeathNoticeTo(pm.PID, f.back)
	}
}

// fwd is a forwarding address (§3.1 step 7): an entry of the forwarder
// table (coldState.fwds), keyed by pid, not a process record. back is the §4
// GC's pointer backwards; rec is its migration's index in k.led. With its key
// it is the paper's 8 bytes, and it holds no pointer. Every reader asks
// lookup first: a live record of the pid wins, which happens while the
// process arrives back (steps 3-8), until step 8 deletes the address.
type fwd struct {
	to, back addr.MachineID
	rec      uint32
}
