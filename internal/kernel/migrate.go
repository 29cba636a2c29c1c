package kernel

import (
	"encoding/binary"
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// This file implements §3.1's eight steps as one record type (migration),
// one table (protocol) and one dispatcher (migrationMsg). The source kernel
// runs steps 1-2 and 6-7; the destination kernel controls steps 3-5 and 8
// ("The next part of the migration, up to the forwarding of messages, will
// be controlled by the destination processor kernel"). The nine
// administrative messages — who sends each, its payload, which half receives
// it and what a kernel holding no such half does — are the rows of protocol;
// docs/PROTOCOLS.md "Kernel control plane" prints that table and
// TestProtocolTableDoc keeps the two identical.
//
// Fast-path notes (DESIGN.md §7 "migration fast path"): the protocol is
// pinned by the conformance tests, but its bookkeeping is not. A migration
// half is a pooled record whose watchdog closure is bound once and whose
// event is armed once; the process crosses as one frozen value (freeze/thaw
// at the end of this file, shared with Checkpoint/Revive) whose region
// buffers survive recycling and serve either half; region pulls reassemble
// into those buffers, pre-sized from the MigrateAsk announcement; and trace
// records carry a static site and scalar arguments (k.trace), so no step
// touches fmt until its record is read.

// migRole is the half of a migration a record stands for and, in the
// protocol table, the half an op is addressed to.
type migRole uint8

const (
	roleSource migRole = 1 << iota // steps 1-2 and 6-7
	roleDest                       // steps 3-5 and 8
	roleEither = roleSource | roleDest
)

// migStep is how far either half has got through steps 4-5: the msg.Region
// the destination is pulling or the source is to stream next, then
// stepEstablished. The destination controls the order, so the two halves
// count the same regions in the same order.
type migStep uint8

// stepEstablished: every region has crossed. The destination has assembled
// the process and sent message 7: from here on only the source decides
// whether this copy is the process, so a silent source makes the watchdog
// ask again, not discard it.
const stepEstablished = migStep(msg.RegionProgram) + 1

// migration is one half of one in-flight migration, hung off the process
// record it moves (procExt.mig). Records are pooled (k.migFree) and serve
// either role: the region buffers and the watchdog closure survive
// recycling, so a warm kernel freezes a process, or reassembles one, without
// allocating, and a process bouncing between two machines reaches a steady
// state where its transfers touch no allocator.
type migration struct {
	role migRole
	step migStep
	pid  addr.ProcessID
	peer addr.MachineID // the other kernel
	p    *Process       // the frozen process (source) or the incoming record (destination)

	// Source half: who asked, and the §6 cost report being assembled.
	requester addr.ProcessAddr
	rep       MigrationReport

	// Destination half: the region pull, in k.xfersIn under xfer while in
	// flight.
	xfer uint16
	in   inStream

	// The one watchdog, armed once per half: it fires at the deadline it was
	// armed for and re-arms itself for the remainder if progress has moved
	// the deadline meanwhile — so progress is a store, not a Cancel+After.
	deadline sim.Time
	watchdog sim.Event
	wdFn     func() // bound once at construction; identity-checked on fire

	frozen // the three regions: frozen at step 1, or reassembled in steps 4-5
}

// migrateEnvelopeReserve is how many envelopes the destination pool is
// topped up to when accepting a migration (step 3): enough for the admin
// replies and acks of one transfer to find warm envelopes.
const migrateEnvelopeReserve = 4

// openMigration starts a half: a record from the pool, hung off p at the
// first step. The watchdog is armed later (armWatchdog), once the half has
// sent its first message.
func (k *Kernel) openMigration(role migRole, p *Process, peer addr.MachineID) *migration {
	mg := k.cold().migFree.get()
	if mg == nil {
		mg = &migration{}
		mg.wdFn = func() { k.watchdogFired(mg) }
	}
	mg.role, mg.step, mg.pid, mg.peer, mg.p = role, migStep(msg.RegionResident), p.id, peer, p
	k.extOf(p).mig = mg
	return mg
}

// endMigration is the one way a half ends — committed, refused, aborted or
// failed: the watchdog is canceled, the process record lets go of the half
// (unless step 7 already recycled it), and the record goes back to the pool
// with its region buffers' backing and its watchdog closure. The caller
// reads what it still needs from mg first: the next migration may take this
// very record. Records orphaned by a crash never get here (Restart cancels
// their watchdogs as it wipes the process table) and are dropped to the GC.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) endMigration(mg *migration) {
	k.eng.Cancel(mg.watchdog)
	if mg.p.mig() == mg {
		mg.p.ext.mig = nil
	}
	*mg = migration{wdFn: mg.wdFn, frozen: frozen{
		resident: mg.resident[:0], swap: mg.swap[:0], program: mg.program[:0]}}
	k.cold().migFree.put(mg)
}

// armWatchdog starts the half's progress timer. If the peer goes silent —
// crashed mid-transfer, network partition — the source gives up, discards
// the destination's half-built state and restores the frozen process as if
// the migration had been refused; the destination discards the incoming
// state and tells the source to restore the process, unless it is
// established, when it asks the source again.
func (k *Kernel) armWatchdog(mg *migration) {
	k.progress(mg)
	mg.watchdog = k.eng.At(mg.deadline, "kernel:migrate-watchdog", mg.wdFn)
}

// progress moves the half's deadline: MigrateTimeout from now. The armed
// event is left where it is; watchdogFired chases the deadline.
func (k *Kernel) progress(mg *migration) {
	mg.deadline = k.eng.Now() + k.cfg.MigrateTimeout
}

// watchdogFired is the timeout of either half. The pointer-identity check
// against the pid's process record makes a stale fire on a recycled record
// a no-op.
func (k *Kernel) watchdogFired(mg *migration) {
	if k.crashed || k.lookup(mg.pid).mig() != mg {
		return // Restart discards the migration wholesale
	}
	if k.eng.Now() < mg.deadline {
		mg.watchdog = k.eng.At(mg.deadline, "kernel:migrate-watchdog", mg.wdFn)
		return
	}
	if mg.role == roleDest && mg.step == stepEstablished {
		// Step 5 completed and message 8 has not come: message 7 or 8 was
		// lost, or the source is down or cut off. Only the source decides
		// (decideEstablished), so ask it again and keep the copy incoming.
		k.sendPIDMachine(addr.KernelAddr(mg.peer), msg.OpMigrateEstablished, mg.pid)
		k.armWatchdog(mg)
		return
	}
	k.sendPIDMachine(addr.KernelAddr(mg.peer), msg.OpMigrateAbort, mg.pid)
	k.failMigration(mg, fmt.Errorf("no progress from %v in %v", mg.peer, k.cfg.MigrateTimeout))
}

// failMigration discards whichever half mg is.
func (k *Kernel) failMigration(mg *migration, cause error) {
	if mg.role == roleSource {
		k.abortSource(mg, siteAborted, cause)
	} else {
		k.failIncoming(mg, cause)
	}
}

// --- the protocol table and its dispatcher ----------------------------------

// stepSet is the protocol table's legal-at column: bit s is set when a row
// is legal at step s of the half it is addressed to.
type stepSet uint8

const (
	atAny         = ^stepSet(0)
	atFirst       = stepSet(1) << msg.RegionResident // before any region has streamed
	atPull        = atFirst | 1<<msg.RegionSwappable | 1<<msg.RegionProgram
	atEstablished = stepSet(1) << stepEstablished
)

// protoRow is one row of the protocol table. num, dir, steps and orphanDoc
// are its words in docs/PROTOCOLS.md; migrationMsg reads the rest.
type protoRow struct {
	op    msg.Op
	num   string  // which of §6's nine administrative messages
	dir   string  // sender → receiver
	bytes int     // payload size; a shorter body is dropped
	role  migRole // the half it is addressed to; 0: none (the op opens a half, or goes to the requester)
	at    stepSet // the steps of that half at which the row is legal
	// step runs on the addressed record (nil when role is 0), passing kills in order.
	step  func(k *Kernel, mg *migration, m *msg.Message)
	steps string
	kills []KillPoint
	// orphan runs instead when this kernel holds no such half for the pid; nil ignores the message.
	orphan    func(k *Kernel, pid addr.ProcessID, m *msg.Message)
	orphanDoc string
}

// protocol is §3.1 as data: one row per migration op, indexed by
// op-OpMigrateRequest. It is the one list of migration ops — kernelControl
// routes exactly these to migrationMsg — and is filled in init because the
// step functions reach kernelControl again (step 8 hands held
// DELIVERTOKERNEL messages to the kernel), which a package-level
// initializer may not.
var protocol [msg.OpMigrateAbort - msg.OpMigrateRequest + 1]protoRow

func init() {
	protocol = [...]protoRow{
		{op: msg.OpMigrateRequest, num: "1", dir: "process manager → source", bytes: 6,
			step: (*Kernel).stepRequest, steps: "1–2, opens the source half", kills: []KillPoint{KPSourceFrozen, KPSourceAsked}},
		{op: msg.OpMigrateAsk, num: "2", dir: "source → destination", bytes: 10,
			step: (*Kernel).stepAsk, steps: "3, opens the destination half", kills: []KillPoint{KPDestAllocated}},
		{op: msg.OpMigrateAccept, num: "3", dir: "destination → source", bytes: 6, role: roleSource, at: atAny,
			step: (*Kernel).stepAccept, steps: "—"},
		{op: msg.OpMigrateRefuse, num: "3", dir: "destination → source", bytes: 6, role: roleSource, at: atFirst,
			step: (*Kernel).stepRefuse, steps: "§3.2"},
		{op: msg.OpMoveDataReq, num: "4–6", dir: "destination → source", bytes: 7, role: roleSource, at: atPull,
			step: (*Kernel).stepMoveData, steps: "4–5"},
		{op: msg.OpMigrateEstablished, num: "7", dir: "destination → source", bytes: 6, role: roleSource, at: atEstablished,
			step: (*Kernel).stepEstablished, steps: "6–7", kills: []KillPoint{KPSourceEstablished, KPSourceCommitted},
			orphan: (*Kernel).decideEstablished, orphanDoc: "a forwarder to the sender, or no record and no exit record of the pid: reply `migrate-cleanup`; else reply `migrate-abort`"},
		{op: msg.OpMigrateCleanup, num: "8", dir: "source → destination", bytes: 6, role: roleDest, at: atEstablished,
			step: (*Kernel).stepCleanup, steps: "8", kills: []KillPoint{KPDestCleanup}},
		{op: msg.OpMigrateDone, num: "9", dir: "source → requester", bytes: 7,
			step: (*Kernel).stepDone, steps: "—"},
		{op: msg.OpMigrateAbort, num: "—", dir: "either → the other", bytes: 6, role: roleEither, at: atAny,
			step: (*Kernel).stepAbort, steps: "—"},
	}
}

// protocolRow returns op's row of the table, nil if op is no migration op.
func protocolRow(op msg.Op) *protoRow {
	if op < msg.OpMigrateRequest || op > msg.OpMigrateAbort {
		return nil
	}
	return &protocol[op-msg.OpMigrateRequest]
}

// migrationMsg is the one dispatcher of the migration protocol. Every body
// starts with the pid; it finds the half hung off that pid's record, checks
// it is the half the op is addressed to (else the row's orphan rule) and
// that the message comes from the half's peer and is legal at the half's
// step (else it is dropped and counted AdminRejected: the rule is the same
// for every row), bills the message to the source half's report (the
// received side of §6's count; sendAdmin bills the sent side), stamps
// progress, and runs the row's step. The Accept is billed once per attempt,
// by stepMoveData, so a duplicate or a late one costs §6's bill nothing.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) migrationMsg(row *protoRow, m *msg.Message) {
	if len(m.Body) < row.bytes {
		return // so no step's decoder can fail
	}
	var mg *migration
	if row.role != 0 {
		pid, rest, _ := addr.DecodePID(m.Body)
		mg = k.lookup(pid).mig()
		if mg == nil || mg.role&row.role == 0 {
			if row.orphan != nil {
				row.orphan(k, pid, m)
			}
			return
		}
		at := row.at
		if row.op == msg.OpMoveDataReq {
			at &= 1 << rest[0] // only at the step its region names: each region crosses once, in order
		}
		if m.From.LastKnown != mg.peer || at&(1<<mg.step) == 0 {
			k.cold().AdminRejected++
			return
		}
		if mg.role == roleSource && row.op != msg.OpMigrateAccept {
			mg.rep.NoteAdmin(len(m.Body))
		}
		k.progress(mg)
	}
	row.step(k, mg, m)
}

// sendAdmin accounts for one administrative message — globally and (if rep
// != nil) in the per-migration report — and routes it. Callers build m with
// newControl and fill Body in place with an AppendTo encoder, so the nine
// protocol messages of a migration reuse pooled envelopes end to end.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
func (k *Kernel) sendAdmin(m *msg.Message, rep *MigrationReport) {
	k.cold().AdminSent[m.Op]++
	k.cold().AdminBytes += uint64(len(m.Body))
	if rep != nil {
		rep.NoteAdmin(len(m.Body))
	}
	k.route(m)
}

// sendDone emits the OpMigrateDone report message (message 9, also the
// refusal path's reply).
func (k *Kernel) sendDone(to addr.ProcessAddr, d msg.MigrateDone, rep *MigrationReport) {
	m := k.newControl(msg.OpMigrateDone, to)
	m.Body = d.AppendTo(m.Body[:0])
	k.sendAdmin(m, rep)
}

// sendPIDMachine emits one of the {PID, this machine} administrative
// messages (accept, refuse, established, abort).
func (k *Kernel) sendPIDMachine(to addr.ProcessAddr, op msg.Op, pid addr.ProcessID) {
	m := k.newControl(op, to)
	m.Body = msg.PIDMachine{PID: pid, Machine: k.machine}.AppendTo(m.Body[:0])
	k.sendAdmin(m, nil)
}

// stepDone records a self-initiated migration's completion report (the
// requester was this kernel rather than a process manager): the latest one
// and a count, so a kernel that requests thousands of migrations keeps none
// of their replies.
func (k *Kernel) stepDone(_ *migration, m *msg.Message) {
	c := k.cold()
	c.lastDone, _ = msg.DecodeMigrateDone(m.Body)
	c.dones++
}

// stepAbort discards whichever half of the migration this kernel holds.
func (k *Kernel) stepAbort(mg *migration, m *msg.Message) {
	pm, _ := msg.DecodePIDMachine(m.Body)
	k.failMigration(mg, fmt.Errorf("aborted by %v", pm.Machine))
}

// --- source side -----------------------------------------------------------

// stepRequest is steps 1-2: remove the process from execution and ask the
// destination.
func (k *Kernel) stepRequest(_ *migration, m *msg.Message) {
	req, _ := msg.DecodeMigrateRequest(m.Body)
	p := k.lookup(req.PID)
	here := p != nil && p.state != StateIncoming && k.net.Routable(req.Dest)
	trivial := here && req.Dest == k.machine // already where it is asked to go
	if !here || trivial || p.state == StateInMigration {
		if p != nil && (p.state == StateInMigration || p.state == StateIncoming) {
			k.cold().MigrationsRefused++ // one migration of a pid at a time
		}
		k.sendDone(m.From, msg.MigrateDone{PID: req.PID, Machine: k.machine, OK: trivial}, nil)
		return
	}

	mg := k.openMigration(roleSource, p, req.Dest)
	mg.requester = m.From
	mg.rep = MigrationReport{
		PID: p.id, From: k.machine, To: req.Dest, Start: k.eng.Now(),
	}
	// Count the request we just received: it opened the record, so the
	// dispatcher had none to bill.
	mg.rep.NoteAdmin(len(m.Body))

	// Step 1: "The process is marked as 'in migration'. If it had been
	// ready, it is removed from the run queue. No change is made to the
	// recorded state of the process" — so prevState (ready, waiting, or
	// suspended) travels in the resident record and is restored verbatim.
	p.prevState = p.state
	p.state = StateInMigration
	k.removeFromRunq(p)
	k.trace(siteStep1, "", trace.PID(p.id), trace.Name(p.prevState))

	// Freeze the three payloads at this instant, into the record's
	// region buffers.
	if err := k.freeze(&mg.frozen, p); err != nil {
		k.abortSource(mg, siteAborted, err)
		return
	}
	swappable := mg.swappableLen()
	mg.rep.ResidentBytes = len(mg.resident)
	mg.rep.SwappableBytes = swappable
	mg.rep.ProgramBytes = len(mg.program)
	if k.killpoint(KPSourceFrozen, p.id) {
		return
	}

	// Step 2: "A message is sent to the kernel on the destination
	// processor, asking it to migrate the process to its machine."
	ask := msg.MigrateAsk{
		PID:       p.id,
		Program:   msg.ToUnits(len(mg.program)),
		Resident:  msg.ToUnits(len(mg.resident)),
		Swappable: msg.ToUnits(swappable),
	}
	k.trace(siteStep2, "", trace.PID(p.id), trace.Machine(mg.peer),
		trace.Int(len(mg.program)), trace.Int(len(mg.resident)), trace.Int(swappable))
	am := k.newControl(msg.OpMigrateAsk, addr.KernelAddr(req.Dest))
	am.Body = ask.AppendTo(am.Body[:0])
	k.sendAdmin(am, &mg.rep)
	if k.killpoint(KPSourceAsked, p.id) {
		return
	}
	k.armWatchdog(mg)
}

// abortSource ends the source half without moving the process — aborted on
// a fault path, or refused by the destination — restores the frozen process
// and reports failure to the requester.
func (k *Kernel) abortSource(mg *migration, site trace.Site, cause error) {
	k.trace(site, cause.Error(), trace.PID(mg.pid))
	p, pid, requester := mg.p, mg.pid, mg.requester
	k.endMigration(mg) // first: a request held on the queue may migrate p again right now
	k.cold().MigrationsFailed++
	k.restartProc(p, p.prevState)
	k.sendDone(requester, msg.MigrateDone{PID: pid, Machine: k.machine, OK: false}, nil)
}

// restartProc is the one way a stopped process runs again — after an
// abort, at step 8 and at revival: it is put into its recorded state ("in
// whatever state it was in before being migrated") and then serves what was
// held on its queue, DELIVERTOKERNEL messages included, through redeliver.
// A waiting process needs no rule of its own: the first user message
// redelivered wakes it. What was held may end p (a kill) or move it again
// (a request), so the caller must not touch p afterwards.
func (k *Kernel) restartProc(p *Process, state ProcState) {
	switch state {
	case StateWaiting, StateSuspended:
		p.state = state
	default:
		k.enqueueRun(p)
	}
	k.redeliver(p)
}

// redeliver hands the messages held on p's queue back to the normal
// delivery path. The drain is bounded by the queue length at entry:
// redelivery to a restored process lands at the tail of this same queue,
// and those messages must not be processed again in this pass. It stops
// early when the queue is empty, which is what a redelivered kill leaves:
// terminate releases the rest and recycles p. p need not be in the process
// table (failIncoming redelivers from a record it has just removed).
func (k *Kernel) redeliver(p *Process) {
	for n := p.queue.Len(); n > 0 && p.queue.Len() > 0; n-- {
		k.deliverLocal(k.unmark(p, p.queue.pop()))
	}
}

// stepAccept is informational on the source: the destination now drives
// steps 4-5 by pulling the three regions.
func (k *Kernel) stepAccept(mg *migration, _ *msg.Message) {
	k.trace(siteAccepted, "", trace.PID(mg.pid), trace.Machine(mg.peer))
}

func (k *Kernel) stepRefuse(mg *migration, _ *msg.Message) {
	k.abortSource(mg, siteRefused, fmt.Errorf("by %v (§3.2: the process cannot be migrated)", mg.peer))
}

// stepMoveData serves steps 4-5 from the source: stream the requested
// region to the destination kernel. The swappable region goes out as a
// two-vector gather (length-prefixed link table, body control state) —
// byte-identical on the wire to a concatenating encoder, but without ever
// building the concatenation.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) stepMoveData(mg *migration, m *msg.Message) {
	req, _ := msg.DecodeMoveDataReq(m.Body)
	mg.step++
	mg.rep.MoveDataTransfers++
	if req.Region == msg.RegionResident { // a destination that pulls has accepted: bill its Accept
		mg.rep.NoteAdmin(protocolRow(msg.OpMigrateAccept).bytes)
	}
	var vecs [2][]byte
	switch req.Region {
	case msg.RegionResident:
		vecs[0] = mg.resident
	case msg.RegionSwappable:
		vecs[0], vecs[1] = mg.swap, mg.ctl
	case msg.RegionProgram:
		vecs[0] = mg.program
	}
	total := len(vecs[0]) + len(vecs[1])
	packets, span := k.streamGather(addr.KernelAddr(mg.peer), false, req.Xfer, 0, vecs[:])
	mg.rep.DataPackets += packets
	// The destination says nothing more until the paced stream has left:
	// that much silence is progress, not a fault.
	mg.deadline += span
	k.trace(siteStream, "", trace.PID(req.PID), trace.Name(req.Region),
		trace.Int(total), trace.Int(packets), trace.Machine(mg.peer))
}

// stepEstablished is steps 6-7 on the source, plus the final report to the
// requester.
func (k *Kernel) stepEstablished(mg *migration, _ *msg.Message) {
	p, pid := mg.p, mg.pid
	// The destination's copy is now the process: any checkpoint of the
	// source copy is stale, and reviving it after a crash here would
	// fork the process.
	k.dropStable(pid)
	if k.killpoint(KPSourceEstablished, pid) {
		return
	}

	// Step 6: "the source kernel resends all messages that were in the
	// queue when the migration started, or that have arrived since...
	// Before giving them back to the communication system, the source
	// kernel changes the location part of the process address." The drain
	// is bounded by the length at entry; rerouting cannot re-hold here
	// (the location is another machine), but the bound keeps the pattern
	// uniform with redeliver.
	forwarded := p.queue.Len()
	for n := forwarded; n > 0; n-- {
		qm := k.unmark(p, p.queue.pop())
		qm.To.LastKnown = mg.peer
		k.cold().ForwardedPending++
		k.route(qm)
	}
	k.trace(siteStep6, "", trace.PID(pid), trace.Int(forwarded), trace.Machine(mg.peer))
	mg.rep.PendingForwarded = forwarded

	// Step 7: "all state for the process is removed and space for memory
	// and tables is reclaimed. A forwarding address is left." The record
	// goes back to procFree; in forwarding mode the address is a table
	// entry, written below with its ledger index.
	k.releaseImage(p)
	back := p.cameFrom()
	k.delProc(pid)
	k.putProcRec(p)
	if k.cfg.Mode == ModeForward {
		k.cold().ForwardersInstalled++
		k.cold().ForwarderBytes += ForwarderWireSize
	}
	k.trace(siteStep7, "", trace.PID(pid), trace.Machine(mg.peer), trace.Int(ForwarderWireSize))

	if k.cfg.EagerUpdate {
		k.broadcastEagerUpdate(pid, mg.peer)
	}
	if k.killpoint(KPSourceCommitted, pid) {
		return
	}

	// Step 8 trigger: tell the destination it may restart the process.
	cm := k.newControl(msg.OpMigrateCleanup, addr.KernelAddr(mg.peer))
	cm.Body = msg.MigrateCleanup{PID: pid, Forwarded: uint16(forwarded)}.AppendTo(cm.Body[:0])
	k.sendAdmin(cm, &mg.rep)

	// Message 9: report success to the requester (process manager).
	k.sendDone(mg.requester, msg.MigrateDone{PID: pid, Machine: mg.peer, OK: true}, &mg.rep)

	mg.rep.End = k.eng.Now()
	mg.rep.OK = true
	k.cold().MigrationsOut++
	// The ledger holds the one copy of the record (Reports reads it back);
	// the forwarding address keeps its index, so §4/§5 residual traffic
	// keeps accruing to it after completion (ledgerForward).
	if k.led == nil {
		k.led = obs.NewLedger()
	}
	rec := k.led.Add(mg.rep)
	if k.cfg.Mode == ModeForward {
		c := k.cold()
		if c.fwds == nil {
			c.fwds = make(map[addr.ProcessID]fwd)
		}
		c.fwds[pid] = fwd{to: mg.peer, back: back, rec: rec}
		clear(c.runs[pid]) // counts a past address of pid left here, map kept for reuse
	}
	if k.cfg.OnReport != nil {
		k.cfg.OnReport(mg.rep)
	}
	k.endMigration(mg)
}

// decideEstablished is the Established row's orphan rule: the source decides
// for a destination that asks when no half is left here. A forwarding address
// to the sender (message 8 was lost) or no record and no exit record (this
// kernel crashed with its copy) make the sender's copy the process: send
// message 8 again, billed to no ledger record, and drop any checkpoint a
// failed revival left here. A live copy, an exit record or a forwarder
// elsewhere mean the process went on without it: reply Abort.
func (k *Kernel) decideEstablished(pid addr.ProcessID, m *msg.Message) {
	f, fwded := k.coldView().fwds[pid]
	_, exited := k.Exit(pid)
	if k.lookup(pid) != nil || fwded && f.to != m.From.LastKnown || !fwded && exited {
		k.sendPIDMachine(m.From, msg.OpMigrateAbort, pid)
		return
	}
	k.dropStable(pid)
	cm := k.newControl(msg.OpMigrateCleanup, m.From)
	cm.Body = msg.MigrateCleanup{PID: pid}.AppendTo(cm.Body[:0])
	k.sendAdmin(cm, nil)
}

func (k *Kernel) broadcastEagerUpdate(pid addr.ProcessID, dest addr.MachineID) {
	pm := msg.PIDMachine{PID: pid, Machine: dest}
	for _, mach := range k.cfg.Machines {
		if mach == k.machine {
			continue
		}
		k.cold().EagerUpdatesSent++
		u := k.newControl(msg.OpEagerUpdate, addr.KernelAddr(mach))
		u.Body = pm.AppendTo(u.Body[:0])
		k.route(u)
	}
	// Fix local tables directly.
	k.applyEagerUpdate(&msg.Message{Body: pm.Encode()})
}

// --- destination side -------------------------------------------------------

// stepAsk is step 3: allocate an empty process state with the same process
// identifier and reserve resources — or refuse (§3.2). An Ask for a half
// already open here with the same source is a duplicate: it is dropped and
// counted AdminRejected, where refusing it as an identity collision would
// abort a migration that is about to succeed.
func (k *Kernel) stepAsk(_ *migration, m *msg.Message) {
	ask, _ := msg.DecodeMigrateAsk(m.Body)
	src := m.From.LastKnown
	old := k.lookup(ask.PID)
	if mg := old.mig(); mg != nil && mg.role == roleDest && mg.peer == src {
		k.cold().AdminRejected++
		return
	}
	programBytes := int(ask.Program) * msg.SizeUnit
	memFree := -1
	if k.cfg.MemCapacity > 0 {
		memFree = k.cfg.MemCapacity - k.memUsed
	}
	accept := old == nil // else identity collision: refuse
	if accept && k.accept != nil {
		accept = k.accept(ask, memFree)
	} else if accept && memFree >= 0 && programBytes > memFree {
		accept = false
	}
	if !accept {
		k.cold().MigrationsRefused++
		k.sendPIDMachine(addr.KernelAddr(src), msg.OpMigrateRefuse, ask.PID)
		return
	}

	// "An empty process state is created on the destination processor...
	// the newly allocated process state has the same process identifier
	// as the migrating process. Resources such as virtual memory swap
	// space are reserved at this time." A process arriving back shadows its
	// forwarding address until step 8 drops it: ForwarderBytes counts it out.
	if _, ok := k.coldView().fwds[ask.PID]; ok {
		k.cold().ForwarderBytes -= ForwarderWireSize
	}
	p := k.getProcRec()
	p.id = ask.PID
	p.state = StateIncoming
	k.extOf(p).cameFrom = src
	k.addProc(p)
	mg := k.openMigration(roleDest, p, src)
	// Pre-warmed destination slots: size the region reassembly buffers
	// from the announced (unit-rounded) sizes and top up the envelope
	// pool now, so steps 4-8 do no growth or map work.
	reserve(&mg.resident, int(ask.Resident)*msg.SizeUnit)
	reserve(&mg.swap, int(ask.Swappable)*msg.SizeUnit)
	reserve(&mg.program, programBytes)
	k.pool.Reserve(migrateEnvelopeReserve)
	k.trace(siteStep3, "", trace.PID(ask.PID), trace.Machine(src), trace.Int(programBytes))
	if k.killpoint(KPDestAllocated, ask.PID) {
		return
	}
	k.sendPIDMachine(addr.KernelAddr(src), msg.OpMigrateAccept, ask.PID)
	k.armWatchdog(mg)
	k.pullRegion(mg, mg.resident)
}

// pullRegion requests the region mg.step names, to be reassembled into
// buf's backing (steps 4 and 5: "Using the move data facility, the
// destination kernel copies..."). The stream is the one the record embeds
// and points back at the record, so region completion dispatches without a
// per-pull closure or a stream record of its own.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) pullRegion(mg *migration, buf []byte) {
	region := msg.Region(mg.step)
	mg.in = inStream{buf: buf[:0], total: -1, mg: mg}
	mg.xfer = k.newXferID()
	c := k.cold()
	if c.xfersIn == nil {
		c.xfersIn = make(map[uint16]*inStream)
	}
	c.xfersIn[mg.xfer] = &mg.in
	step := siteStep4
	if region == msg.RegionProgram {
		step = siteStep5
	}
	k.trace(step, "", trace.PID(mg.pid), trace.Name(region))
	rm := k.newControl(msg.OpMoveDataReq, addr.KernelAddr(mg.peer))
	rm.Body = msg.MoveDataReq{PID: mg.pid, Region: region, Xfer: mg.xfer}.AppendTo(rm.Body[:0])
	k.sendAdmin(rm, nil)
}

// regionArrived stores the reassembled region mg.step was pulling and
// advances the pull state machine (handleDataPacket stamped progress as
// each packet arrived). mg is live: a half that ends mid-pull unregisters
// its stream (failIncoming), so no stream completes into a dead record.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) regionArrived(mg *migration, data []byte) {
	switch msg.Region(mg.step) {
	case msg.RegionResident:
		mg.resident = data
		mg.step++
		k.pullRegion(mg, mg.swap)
	case msg.RegionSwappable:
		mg.swap = data
		if k.killpoint(KPDestMidTransfer, mg.pid) {
			return
		}
		mg.step++
		k.pullRegion(mg, mg.program)
	case msg.RegionProgram:
		mg.program = data
		if k.killpoint(KPDestTransferred, mg.pid) {
			return
		}
		k.assembleProcess(mg)
	}
}

// assembleProcess thaws the three regions into a runnable process and
// sends OpMigrateEstablished (end of step 5, message 7). The cleanup
// message must still arrive: the watchdog stays armed.
func (k *Kernel) assembleProcess(mg *migration) {
	if err := k.thaw(mg.p, mg.resident, mg.swap, mg.program); err != nil {
		k.failIncoming(mg, err)
		return
	}
	k.relieveMemory()
	k.cold().MigrationsIn++
	mg.step = stepEstablished
	k.sendPIDMachine(addr.KernelAddr(mg.peer), msg.OpMigrateEstablished, mg.pid)
}

// failIncoming ends the destination half without the process: the
// half-built state is discarded, and the messages held on the incoming
// record go back through normal delivery, which forwards them through the
// forwarding address the record shadowed or, with none, dead-letters them
// with a count.
func (k *Kernel) failIncoming(mg *migration, cause error) {
	k.trace(siteIncomingFail, cause.Error(), trace.PID(mg.pid))
	// Unregister the in-flight pull, if any, so late packets go stray
	// instead of completing into a recycled record.
	if xs := k.coldView().xfersIn; xs[mg.xfer] == &mg.in {
		delete(xs, mg.xfer)
	}
	p := mg.p
	k.releaseImage(p)
	k.delProc(mg.pid)
	if _, ok := k.coldView().fwds[mg.pid]; ok {
		k.cold().ForwarderBytes += ForwarderWireSize // it answers again
	}
	k.endMigration(mg)
	k.cold().MigrationsFailed++
	k.redeliver(p)
	k.putProcRec(p)
}

// stepCleanup is step 8: "The process is restarted in whatever state it was
// in before being migrated." A process its source held in stable storage is
// first written to this kernel's from the regions it arrived in (the handoff):
// message 8 comes only from a committed source, so the copy can never fork.
func (k *Kernel) stepCleanup(mg *migration, m *msg.Message) {
	c, _ := msg.DecodeMigrateCleanup(m.Body)
	if residentStable(mg.resident) {
		k.keepStable(mg.pid, k.encodeCheckpoint(mg.pid, mg.p.prevState, &mg.frozen))
	}
	if k.killpoint(KPDestCleanup, mg.pid) {
		return
	}
	k.commitIncoming(mg, int(c.Forwarded))
}

// commitIncoming finishes step 8 for an assembled process: restart it in its
// pre-migration state, which serves the messages queued while incoming. The
// migration record goes back to its pool, and the forwarding address the
// arrival shadowed, if any, goes. Step 8 is traced before the held queue is
// served, since a held request may start the next migration.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) commitIncoming(mg *migration, forwarded int) {
	p, pid := mg.p, mg.pid
	k.endMigration(mg)
	delete(k.coldView().fwds, pid) // the address the arrival shadowed, if any
	k.trace(siteStep8, "", trace.PID(pid), trace.Name(p.prevState), trace.Int(forwarded))
	k.restartProc(p, p.prevState)
}

// --- the one codec: freeze / thaw -------------------------------------------

// frozen is a process's one serialized form: the three §3.1 regions that a
// migration streams and a checkpoint stores. The source half encodes into
// these buffers and the destination half reassembles into them; resident,
// swap and program keep their backing when the record embedding them is
// recycled. On the source, swap holds the swappable region up to the body
// control state — the link table behind its 4-byte length — and ctl, which
// the body's Snapshot produced and owns, follows it on the wire, so
// stepMoveData streams the region as a gather without concatenating the
// two. On the destination, swap holds the whole region.
type frozen struct {
	resident []byte
	swap     []byte
	ctl      []byte
	program  []byte
}

func (f *frozen) swappableLen() int { return len(f.swap) + len(f.ctl) }

// reserve pre-sizes one region buffer (the "pre-warmed destination slot"):
// the MigrateAsk sizes are rounded up to msg.SizeUnit, so a buffer with
// this capacity never grows during the transfer.
func reserve(b *[]byte, n int) {
	if cap(*b) < n {
		*b = make([]byte, 0, n)
	}
}

// freeze serializes p into f at this instant, flagging whether this kernel's
// stable storage holds it. It is the only encoder of a process: migration
// step 1 and Checkpoint both call it, so a checkpoint is the migration
// payload by construction (§1).
func (k *Kernel) freeze(f *frozen, p *Process) error {
	_, stable := k.coldView().stable[p.id]
	f.resident = appendResident(f.resident[:0], p, stable)
	ctl, err := p.body.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	f.ctl = ctl
	f.swap = p.links.AppendSnapshot(append(f.swap[:0], 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(f.swap, uint32(len(f.swap)-4))
	f.program = f.program[:0]
	if img := p.image(); img != nil {
		if f.program, err = img.Bytes(); err != nil {
			return fmt.Errorf("program image: %w", err)
		}
	}
	return nil
}

// thaw is freeze's inverse and the only decoder: it rebuilds a process from
// its three regions inside the record p (end of migration step 5, and
// Revive). The image, if any, is charged to memUsed. On error p may be
// partly filled; callers discard it.
func (k *Kernel) thaw(p *Process, resident, swappable, program []byte) error {
	kind, err := decodeResident(p, resident)
	if err != nil {
		return fmt.Errorf("resident state: %w", err)
	}
	ctl, err := decodeSwappableInto(p, swappable)
	if err != nil {
		return fmt.Errorf("swappable state: %w", err)
	}
	name := k.internKind(kind)
	body, err := k.cfg.Registry.New(name)
	if err != nil {
		return err
	}
	if err := body.Restore(ctl); err != nil {
		return fmt.Errorf("restoring %s body: %w", name, err)
	}
	p.body = body
	if len(program) > 0 {
		img := memory.NewImage(len(program), k.swapStore())
		if err := img.WriteAt(program, 0); err != nil {
			return err
		}
		if mh, ok := body.(proc.MemoryHolder); ok {
			mh.SetImage(img)
		}
		k.extOf(p).image = img
		k.memUsed += img.Size()
	}
	return nil
}

// The resident record's flags byte.
const (
	flagPrivileged = 1 << iota
	flagStable     // stable storage held the process when it was frozen
)

// appendResident gather-encodes the kernel process record moved as the
// non-swappable state (§6: "The non-swappable state uses about 250 bytes")
// into b.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func appendResident(b []byte, p *Process, stable bool) []byte {
	imgSize := 0
	if img := p.image(); img != nil {
		imgSize = img.Size()
	}
	kind := p.body.Kind()
	b = append(b, byte(len(kind)))
	b = append(b, kind...)
	var flags byte
	if p.privileged {
		flags = flagPrivileged
	}
	if stable {
		flags |= flagStable
	}
	b = append(b, byte(p.prevState), flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(imgSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.cpuUsed))
	b = binary.LittleEndian.AppendUint64(b, p.msgsIn)
	b = binary.LittleEndian.AppendUint64(b, p.msgsOut)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.createdAt))
	b = binary.LittleEndian.AppendUint32(b, p.queueHighWater)
	return b
}

// decodeResident restores the resident record into p — every field
// appendResident wrote except the image size, which the program region
// carries itself (§3.1 step 1: "No change is made to the recorded state of
// the process"). The returned kind aliases b; thaw interns it before
// retaining. Messages held on an incoming record count toward the high-water
// mark, hence the max.
func decodeResident(p *Process, b []byte) (kind []byte, err error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("empty resident record")
	}
	n := int(b[0])
	b = b[1:]
	if len(b) < n+2+4+8+8+8+8+4 {
		return nil, fmt.Errorf("short resident record")
	}
	kind, b = b[:n], b[n:]
	p.prevState = ProcState(b[0])
	p.privileged = b[1]&flagPrivileged != 0
	p.cpuUsed = sim.Time(binary.LittleEndian.Uint64(b[6:]))
	p.msgsIn = binary.LittleEndian.Uint64(b[14:])
	p.msgsOut = binary.LittleEndian.Uint64(b[22:])
	p.createdAt = sim.Time(binary.LittleEndian.Uint64(b[30:]))
	p.queueHighWater = max(p.queueHighWater, binary.LittleEndian.Uint32(b[38:]))
	return kind, nil
}

// residentStable reads flagStable from a resident record thaw has accepted.
func residentStable(b []byte) bool { return b[2+int(b[0])]&flagStable != 0 }

// decodeSwappableInto rebuilds the link table in place into p's existing
// table (a recycled record keeps its own), so an arriving process reuses the
// slot backing a departed one left behind, and returns the body control
// state that follows it.
func decodeSwappableInto(p *Process, b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("short swappable state")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, fmt.Errorf("truncated link table")
	}
	if p.links == nil {
		p.links = &link.Table{}
	}
	if err := link.RestoreTableInto(p.links, b[:n]); err != nil {
		return nil, err
	}
	return b[n:], nil
}
