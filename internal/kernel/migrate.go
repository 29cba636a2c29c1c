package kernel

import (
	"encoding/binary"
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// This file implements §3.1's eight steps. The source kernel handles steps
// 1-2 and 6-7; the destination kernel controls steps 3-5 and 8 ("The next
// part of the migration, up to the forwarding of messages, will be
// controlled by the destination processor kernel").
//
// Administrative messages (all KindControl, payloads 6-12 bytes):
//
//	1. process manager -> src : OpMigrateRequest   (DELIVERTOKERNEL)
//	2. src -> dst             : OpMigrateAsk       (sizes)
//	3. dst -> src             : OpMigrateAccept / OpMigrateRefuse
//	4. dst -> src             : OpMoveDataReq(resident)
//	5. dst -> src             : OpMoveDataReq(swappable)
//	6. dst -> src             : OpMoveDataReq(program)
//	7. dst -> src             : OpMigrateEstablished
//	8. src -> dst             : OpMigrateCleanup
//	9. src -> process manager : OpMigrateDone
//
// — nine messages, matching the paper's administrative cost.
//
// Fast-path notes (DESIGN.md §7 "migration fast path"): the protocol above
// is pinned by the conformance tests, but its bookkeeping is not. Both
// migration halves are pooled records with once-bound watchdog closures;
// the process crosses as one frozen value (freeze/thaw at the end of this
// file, shared with Checkpoint/Revive) whose scratch buffers survive
// recycling; region pulls reassemble into pre-warmed buffers sized from the
// MigrateAsk announcement; and trace records carry a static format and scalar
// arguments (k.tracef), so no step touches fmt until its record is read.

// outMigration is the source half of one in-flight migration. Records are
// pooled (k.omFree): the scratch buffers and the watchdog closure survive
// recycling, so a warm kernel freezes a process without allocating.
type outMigration struct {
	p         *Process
	dest      addr.MachineID
	requester addr.ProcessAddr
	rep       MigrationReport
	watchdog  sim.Event
	wdFn      func() // bound once at construction; identity-checked on fire

	frozen // the three region payloads, frozen at step 1
}

// inMigration is the destination half. Also pooled (k.imFree); the region
// reassembly buffers are indexed by msg.Region and keep their backing
// across migrations, so a process bouncing between two machines reaches a
// steady state where its transfers touch no allocator.
type inMigration struct {
	pid      addr.ProcessID
	src      addr.MachineID
	ask      msg.MigrateAsk
	p        *Process
	stage    msg.Region
	bufs     [4][]byte // region reassembly buffers, indexed by msg.Region
	watchdog sim.Event
	wdFn     func()
	// xfer/streaming track the one in-flight region pull so failIncoming
	// can release the stream record it registered in k.xfersIn.
	xfer      uint16
	streaming bool
	// established is set once the process is fully assembled and
	// message 7 has been sent: from here on this copy is the process,
	// and a silent source must not make the watchdog discard it.
	established bool
}

// ensure pre-sizes one region buffer (the "pre-warmed destination slot"):
// the MigrateAsk sizes are rounded up to msg.SizeUnit, so a buffer with
// this capacity never grows during the transfer.
func (im *inMigration) ensure(r msg.Region, n int) {
	if cap(im.bufs[r]) < n {
		im.bufs[r] = make([]byte, 0, n)
	}
}

// migrateEnvelopeReserve is how many envelopes the destination pool is
// topped up to when accepting a migration (step 3): enough for the admin
// replies and acks of one transfer to find warm envelopes.
const migrateEnvelopeReserve = 4

func (k *Kernel) getOutMigration() *outMigration {
	om := k.omFree.get()
	if om == nil {
		om = &outMigration{}
		om.wdFn = func() { k.outWatchdogFired(om) }
	}
	return om
}

// putOutMigration releases a source-side record. Callers must have
// canceled the watchdog and removed the record from k.out; records
// orphaned by a crash (Restart reassigns k.out wholesale) are simply
// dropped to the GC and never reach the free list.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) putOutMigration(om *outMigration) {
	*om = outMigration{wdFn: om.wdFn, frozen: frozen{resident: om.resident[:0], table: om.table[:0]}}
	k.omFree.put(om)
}

func (k *Kernel) getInMigration() *inMigration {
	im := k.imFree.get()
	if im == nil {
		im = &inMigration{}
		im.wdFn = func() { k.inWatchdogFired(im) }
	}
	return im
}

// putInMigration releases a destination-side record (same contract as
// putOutMigration: watchdog canceled, k.in entry gone).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) putInMigration(im *inMigration) {
	bufs := im.bufs
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	*im = inMigration{bufs: bufs, wdFn: im.wdFn}
	k.imFree.put(im)
}

// armOutWatchdog (re)starts the source-side progress timer. If the
// destination goes silent — crashed mid-transfer, network partition — the
// source gives up, discards the destination's half-built state, and
// restores the frozen process as if the migration had been refused.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) armOutWatchdog(om *outMigration) {
	k.eng.Cancel(om.watchdog)
	om.watchdog = k.eng.After(k.cfg.MigrateTimeout, "kernel:migrate-watchdog", om.wdFn)
}

// armInWatchdog (re)starts the destination-side progress timer: if the
// source stops streaming (or never sends cleanup), discard the incoming
// state and tell the source to restore the process.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) armInWatchdog(im *inMigration) {
	k.eng.Cancel(im.watchdog)
	im.watchdog = k.eng.After(k.cfg.MigrateTimeout, "kernel:migrate-watchdog", im.wdFn)
}

// outWatchdogFired is the source-side timeout. The pointer-identity check
// against k.out makes a stale fire on a recycled record a no-op.
func (k *Kernel) outWatchdogFired(om *outMigration) {
	if k.crashed {
		return // Restart discards the migration wholesale
	}
	if om.p == nil || k.out[om.p.id] != om {
		return
	}
	abort := k.newControl(msg.OpMigrateAbort, addr.KernelAddr(om.dest))
	abort.Body = msg.PIDMachine{PID: om.p.id, Machine: k.machine}.AppendTo(abort.Body[:0])
	k.sendAdmin(abort, nil)
	k.abortOutMigration(om, "migrate-aborted", fmt.Errorf("no progress from %v in %v", om.dest, k.cfg.MigrateTimeout))
}

// inWatchdogFired is the destination-side timeout.
func (k *Kernel) inWatchdogFired(im *inMigration) {
	if k.crashed {
		return // Restart discards the migration wholesale
	}
	if k.in[im.pid] != im {
		return
	}
	if im.established {
		// Step 5 completed: this copy IS the process, and the
		// source has gone silent — crashed before step 7, or its
		// cleanup is stuck in retransmission. Committing cannot
		// fork: a crashed source wiped its copy (and invalidated
		// its stale checkpoint when it learned we were
		// established), and a source that instead aborted and
		// restored its copy sends OpMigrateAbort, which a
		// timeout-committed copy yields to.
		k.tracef(trace.CatMigrate, "timeout-commit", "%v", trace.PID(im.pid))
		k.commitIncoming(im, 0, true)
		return
	}
	abort := k.newControl(msg.OpMigrateAbort, addr.KernelAddr(im.src))
	abort.Body = msg.PIDMachine{PID: im.pid, Machine: k.machine}.AppendTo(abort.Body[:0])
	k.sendAdmin(abort, nil)
	k.failIncoming(im, fmt.Errorf("no progress from %v in %v", im.src, k.cfg.MigrateTimeout))
}

// handleMigrateAbort discards whichever half of an in-flight migration
// this kernel holds.
func (k *Kernel) handleMigrateAbort(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	if om, ok := k.out[pm.PID]; ok {
		k.abortOutMigration(om, "migrate-aborted", fmt.Errorf("aborted by %v", pm.Machine))
		return
	}
	if im, ok := k.in[pm.PID]; ok {
		k.failIncoming(im, fmt.Errorf("aborted by %v", pm.Machine))
		return
	}
	// An abort reaching a copy committed on watchdog timeout means the
	// source restored its own copy before learning we were established:
	// exactly-one requires the younger copy to yield. Duplicate or stale
	// aborts find no process, or a cleanly-committed one (timeoutCommit
	// false), and fall through as no-ops.
	if p := k.lookup(pm.PID); p != nil && p.timeoutCommit && p.state != StateForwarder {
		k.yieldTimeoutCommit(p, pm.Machine)
	}
}

// yieldTimeoutCommit discards a timeout-committed copy in favour of the
// source's restored one. Queued messages die here and are accounted as
// dead letters; the local stable checkpoint is invalidated so a later
// restart cannot resurrect the yielded copy.
func (k *Kernel) yieldTimeoutCommit(p *Process, src addr.MachineID) {
	k.tracef(trace.CatMigrate, "timeout-commit-yield", "%v yields to restored copy on %v",
		trace.PID(p.id), trace.Machine(src))
	k.removeFromRunq(p)
	k.releaseImage(p)
	for p.queue.Len() > 0 {
		k.stats.DeadLetters++
		k.putMsg(p.queue.pop())
	}
	delete(k.stable, p.id)
	k.delProc(p.id)
	k.stats.MigrationsFailed++
	k.putProcRec(p)
}

// sendAdmin accounts for one administrative message — globally and (if rep
// != nil) in the per-migration report — and routes it. Callers build m with
// newControl and fill Body in place with an AppendTo encoder, so the nine
// protocol messages of a migration reuse pooled envelopes end to end.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
func (k *Kernel) sendAdmin(m *msg.Message, rep *MigrationReport) {
	k.stats.AdminSent[m.Op]++
	k.stats.AdminBytes += uint64(len(m.Body))
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

// sendPIDMachine emits one of the {PID, machine} administrative messages
// (accept, refuse, established, abort).
func (k *Kernel) sendPIDMachine(to addr.ProcessAddr, op msg.Op, pm msg.PIDMachine, rep *MigrationReport) {
	m := k.newControl(op, to)
	m.Body = pm.AppendTo(m.Body[:0])
	k.sendAdmin(m, rep)
}

// --- source side -----------------------------------------------------------

// handleMigrateRequest is step 1: remove the process from execution.
func (k *Kernel) handleMigrateRequest(m *msg.Message) {
	req, err := msg.DecodeMigrateRequest(m.Body)
	if err != nil {
		return
	}
	p := k.lookup(req.PID)
	if p == nil || p.state == StateForwarder || p.state == StateIncoming {
		k.sendDone(m.From, msg.MigrateDone{PID: req.PID, Machine: k.machine, OK: false}, nil)
		return
	}
	if req.Dest == k.machine {
		// Trivial migration: already here.
		k.sendDone(m.From, msg.MigrateDone{PID: req.PID, Machine: k.machine, OK: true}, nil)
		return
	}
	if _, busy := k.out[req.PID]; busy || p.state == StateInMigration {
		k.sendDone(m.From, msg.MigrateDone{PID: req.PID, Machine: k.machine, OK: false}, nil)
		return
	}

	om := k.getOutMigration()
	om.p, om.dest, om.requester = p, req.Dest, m.From
	om.rep = MigrationReport{
		PID: p.id, From: k.machine, To: req.Dest, Start: k.eng.Now(),
	}
	// Count the request we just received.
	om.rep.NoteAdmin(len(m.Body))

	// Step 1: "The process is marked as 'in migration'. If it had been
	// ready, it is removed from the run queue. No change is made to the
	// recorded state of the process" — so prevState (ready, waiting, or
	// suspended) travels in the resident record and is restored verbatim.
	p.prevState = p.state
	p.state = StateInMigration
	k.removeFromRunq(p)
	k.tracef(trace.CatMigrate, "step1-remove-from-execution", "%v was %v",
		trace.PID(p.id), trace.Str(p.prevState.String()))

	// Freeze the three payloads at this instant, into the record's
	// scratch buffers.
	if err := freeze(&om.frozen, p); err != nil {
		k.abortOutMigration(om, "migrate-aborted", err)
		return
	}
	swappable := om.swappableLen()
	om.rep.ResidentBytes = len(om.resident)
	om.rep.SwappableBytes = swappable
	om.rep.ProgramBytes = len(om.program)
	k.out[p.id] = om
	if k.killpoint(KPSourceFrozen, p.id) {
		return
	}

	// Step 2: "A message is sent to the kernel on the destination
	// processor, asking it to migrate the process to its machine."
	ask := msg.MigrateAsk{
		PID:       p.id,
		Program:   msg.ToUnits(len(om.program)),
		Resident:  msg.ToUnits(len(om.resident)),
		Swappable: msg.ToUnits(swappable),
	}
	k.tracef(trace.CatMigrate, "step2-ask-destination", "%v -> %v (program=%dB resident=%dB swappable=%dB)",
		trace.PID(p.id), trace.Machine(om.dest), trace.Int(len(om.program)), trace.Int(len(om.resident)), trace.Int(swappable))
	am := k.newControl(msg.OpMigrateAsk, addr.KernelAddr(req.Dest))
	am.Body = ask.AppendTo(am.Body[:0])
	k.sendAdmin(am, &om.rep)
	if k.killpoint(KPSourceAsked, p.id) {
		return
	}
	k.armOutWatchdog(om)
}

// abortOutMigration ends the source half without moving the process —
// aborted on a fault path, or refused by the destination — restores the
// frozen process and reports failure to the requester.
func (k *Kernel) abortOutMigration(om *outMigration, event string, cause error) {
	k.trace(trace.CatMigrate, event, fmt.Sprintf("%v: %v", om.p.id, cause))
	k.eng.Cancel(om.watchdog)
	delete(k.out, om.p.id)
	k.stats.MigrationsFailed++
	k.restoreFrozen(om.p)
	k.sendDone(om.requester, msg.MigrateDone{PID: om.p.id, Machine: k.machine, OK: false}, &om.rep)
	k.putOutMigration(om)
}

// restoreFrozen puts a process back the way step 1 found it and redelivers
// anything that was held on its queue meanwhile. The drain is bounded by
// the queue length at entry: redelivery lands re-held messages at the tail,
// and those must not be processed again in this pass.
func (k *Kernel) restoreFrozen(p *Process) {
	switch p.prevState {
	case StateReady:
		k.enqueueRun(p)
	default:
		p.state = p.prevState
	}
	for n := p.queue.Len(); n > 0; n-- {
		k.deliverLocal(p.queue.pop())
	}
}

// handleMigrateAccept is informational on the source: the destination now
// drives steps 4-5 by pulling the three regions.
func (k *Kernel) handleMigrateAccept(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	if om, ok := k.out[pm.PID]; ok {
		om.rep.NoteAdmin(len(m.Body))
		k.armOutWatchdog(om)
		k.tracef(trace.CatMigrate, "accepted", "%v by %v", trace.PID(pm.PID), trace.Machine(pm.Machine))
	}
}

func (k *Kernel) handleMigrateRefuse(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	om, ok := k.out[pm.PID]
	if !ok {
		return
	}
	om.rep.NoteAdmin(len(m.Body))
	k.abortOutMigration(om, "refused",
		fmt.Errorf("by %v (§3.2: the process cannot be migrated)", pm.Machine))
}

// handleMoveDataReq serves steps 4-5 from the source: stream the requested
// region to the destination kernel. The swappable region goes out as a
// three-vector gather (length prefix, link table, body control state) —
// byte-identical on the wire to the old concatenating encoder, but without
// ever building the concatenation.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) handleMoveDataReq(m *msg.Message) {
	req, err := msg.DecodeMoveDataReq(m.Body)
	if err != nil {
		return
	}
	om, ok := k.out[req.PID]
	if !ok {
		return
	}
	om.rep.NoteAdmin(len(m.Body))
	om.rep.MoveDataTransfers++
	k.armOutWatchdog(om)
	var vecs [3][]byte
	nv := 1
	switch req.Region {
	case msg.RegionResident:
		vecs[0] = om.resident
	case msg.RegionSwappable:
		vecs[0], vecs[1], vecs[2] = om.swapHdr[:], om.table, om.ctl
		nv = 3
	case msg.RegionProgram:
		vecs[0] = om.program
	}
	total := 0
	for _, v := range vecs[:nv] {
		total += len(v)
	}
	packets := k.streamGather(addr.KernelAddr(m.From.LastKnown), false, req.Xfer, 0, vecs[:nv])
	om.rep.DataPackets += packets
	k.tracef(trace.CatData, "stream-region", "%v %v: %dB in %d packets -> %v",
		trace.PID(req.PID), trace.Str(req.Region.String()), trace.Int(total), trace.Int(packets), trace.Machine(m.From.LastKnown))
}

// handleMigrateEstablished is steps 6-7 on the source, plus the final
// report to the requester.
func (k *Kernel) handleMigrateEstablished(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	om, ok := k.out[pm.PID]
	if !ok {
		// The migration was aborted here (watchdog) but the
		// destination finished anyway: make it discard its copy so
		// the process cannot run in two places.
		k.sendPIDMachine(m.From, msg.OpMigrateAbort,
			msg.PIDMachine{PID: pm.PID, Machine: k.machine}, nil)
		return
	}
	k.eng.Cancel(om.watchdog)
	om.rep.NoteAdmin(len(m.Body))
	p := om.p
	// The destination's copy is now the process: any checkpoint of the
	// source copy is stale, and reviving it after a crash here would
	// fork the process.
	delete(k.stable, p.id)
	if k.killpoint(KPSourceEstablished, p.id) {
		return
	}

	// Step 6: "the source kernel resends all messages that were in the
	// queue when the migration started, or that have arrived since...
	// Before giving them back to the communication system, the source
	// kernel changes the location part of the process address." The drain
	// is bounded by the length at entry; rerouting cannot re-hold here
	// (the record becomes a forwarder below), but the bound keeps the
	// pattern uniform with restoreFrozen.
	forwarded := p.queue.Len()
	for n := forwarded; n > 0; n-- {
		qm := p.queue.pop()
		qm.To.LastKnown = om.dest
		k.stats.ForwardedPending++
		k.route(qm)
	}
	k.tracef(trace.CatMigrate, "step6-forward-pending", "%v: %d queued messages to %v",
		trace.PID(p.id), trace.Int(forwarded), trace.Machine(om.dest))
	om.rep.PendingForwarded = forwarded

	// Step 7: "all state for the process is removed and space for memory
	// and tables is reclaimed. A forwarding address is left." The dead
	// record is recycled immediately — in forwarding mode it is reborn as
	// the forwarding address, so installing one allocates nothing.
	k.releaseImage(p)
	pid := p.id
	backPtr := p.cameFrom
	k.delProc(pid)
	k.putProcRec(p)
	var fwd *Process
	if k.cfg.Mode == ModeForward {
		fwd = k.getProcRec()
		fwd.id = pid
		fwd.state = StateForwarder
		fwd.fwdTo = om.dest
		fwd.cameFrom = backPtr
		k.addProc(fwd)
		k.stats.ForwardersInstalled++
		k.stats.ForwarderBytes += ForwarderWireSize
	}
	k.tracef(trace.CatMigrate, "step7-cleanup-forwarding-address", "%v: forwarder -> %v (%d bytes)",
		trace.PID(pid), trace.Machine(om.dest), trace.Int(ForwarderWireSize))

	if k.cfg.EagerUpdate {
		k.broadcastEagerUpdate(pid, om.dest)
	}
	// The process now lives at the destination: a checkpoint taken here is
	// stale, and reviving it after a crash would fork the process.
	delete(k.stable, pid)
	if k.killpoint(KPSourceCommitted, pid) {
		return
	}

	// Step 8 trigger: tell the destination it may restart the process.
	cm := k.newControl(msg.OpMigrateCleanup, addr.KernelAddr(om.dest))
	cm.Body = msg.MigrateCleanup{PID: pid, Forwarded: uint16(forwarded)}.AppendTo(cm.Body[:0])
	k.sendAdmin(cm, &om.rep)

	// Message 9: report success to the requester (process manager).
	k.sendDone(om.requester, msg.MigrateDone{PID: pid, Machine: om.dest, OK: true}, &om.rep)

	om.rep.End = k.eng.Now()
	om.rep.OK = true
	k.stats.MigrationsOut++
	k.reports = append(k.reports, om.rep)
	if k.led != nil {
		// The ledger keeps the record by pointer; the forwarder holds it
		// too, so §4/§5 residual traffic keeps accruing to this migration
		// after completion (see Kernel.ledgerForward).
		rec := k.led.Add(om.rep)
		if fwd != nil {
			fwd.obsRec = rec
		}
	}
	if k.cfg.OnReport != nil {
		k.cfg.OnReport(om.rep)
	}
	delete(k.out, pid)
	k.putOutMigration(om)
}

func (k *Kernel) broadcastEagerUpdate(pid addr.ProcessID, dest addr.MachineID) {
	pm := msg.PIDMachine{PID: pid, Machine: dest}
	for _, mach := range k.cfg.Machines {
		if mach == k.machine {
			continue
		}
		k.stats.EagerUpdatesSent++
		u := k.newControl(msg.OpEagerUpdate, addr.KernelAddr(mach))
		u.Body = pm.AppendTo(u.Body[:0])
		k.route(u)
	}
	// Fix local tables directly.
	k.applyEagerUpdate(&msg.Message{Body: pm.Encode()})
}

// --- destination side -------------------------------------------------------

// handleMigrateAsk is step 3: allocate an empty process state with the same
// process identifier and reserve resources — or refuse (§3.2).
func (k *Kernel) handleMigrateAsk(m *msg.Message) {
	ask, err := msg.DecodeMigrateAsk(m.Body)
	if err != nil {
		return
	}
	src := m.From.LastKnown
	programBytes := int(ask.Program) * msg.SizeUnit
	memFree := -1
	if k.cfg.MemCapacity > 0 {
		memFree = k.cfg.MemCapacity - k.memUsed
	}
	accept := true
	if existing, dup := k.procs[ask.PID]; dup && existing.state != StateForwarder {
		accept = false // identity collision: refuse
	}
	if accept && k.cfg.Accept != nil {
		accept = k.cfg.Accept(ask, memFree)
	} else if accept && memFree >= 0 && programBytes > memFree {
		accept = false
	}
	if !accept {
		k.stats.MigrationsRefused++
		k.sendPIDMachine(addr.KernelAddr(src), msg.OpMigrateRefuse,
			msg.PIDMachine{PID: ask.PID, Machine: k.machine}, nil)
		return
	}

	// "An empty process state is created on the destination processor...
	// the newly allocated process state has the same process identifier
	// as the migrating process. Resources such as virtual memory swap
	// space are reserved at this time."
	if old, dup := k.procs[ask.PID]; dup && old.state == StateForwarder {
		// The process is migrating back to a machine holding its own
		// forwarding address; the real process supersedes it.
		k.stats.ForwarderBytes -= ForwarderWireSize
		k.delProc(ask.PID)
		k.putProcRec(old)
	}
	p := k.getProcRec()
	p.id = ask.PID
	p.state = StateIncoming
	p.cameFrom = src
	k.addProc(p)
	im := k.getInMigration()
	im.pid, im.src, im.ask, im.p = ask.PID, src, ask, p
	im.stage = msg.RegionResident
	// Pre-warmed destination slots: size the region reassembly buffers
	// from the announced (unit-rounded) sizes and top up the envelope
	// pool now, so steps 4-8 do no growth or map work.
	im.ensure(msg.RegionResident, int(ask.Resident)*msg.SizeUnit)
	im.ensure(msg.RegionSwappable, int(ask.Swappable)*msg.SizeUnit)
	im.ensure(msg.RegionProgram, programBytes)
	k.pool.Reserve(migrateEnvelopeReserve)
	k.in[ask.PID] = im
	k.tracef(trace.CatMigrate, "step3-allocate-state", "%v from %v (reserving %dB)",
		trace.PID(ask.PID), trace.Machine(src), trace.Int(programBytes))
	if k.killpoint(KPDestAllocated, ask.PID) {
		return
	}
	k.sendPIDMachine(addr.KernelAddr(src), msg.OpMigrateAccept,
		msg.PIDMachine{PID: ask.PID, Machine: k.machine}, nil)
	k.armInWatchdog(im)
	k.pullRegion(im)
}

// pullRegion requests the next region (steps 4 and 5: "Using the move data
// facility, the destination kernel copies..."). The stream record carries
// the migration pointer directly, so region completion dispatches without
// a per-pull closure.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) pullRegion(im *inMigration) {
	xfer := k.newXferID()
	region := im.stage
	st := k.getInStream()
	st.im = im
	st.region = region
	st.buf = im.bufs[region][:0]
	k.xfersIn[xfer] = st
	im.xfer, im.streaming = xfer, true
	step := "step4-transfer-state"
	if region == msg.RegionProgram {
		step = "step5-transfer-program"
	}
	k.tracef(trace.CatMigrate, step, "%v pull %v", trace.PID(im.pid), trace.Str(region.String()))
	rm := k.newControl(msg.OpMoveDataReq, addr.KernelAddr(im.src))
	rm.Body = msg.MoveDataReq{PID: im.pid, Region: region, Xfer: xfer}.AppendTo(rm.Body[:0])
	k.sendAdmin(rm, nil)
}

// regionArrived stores a reassembled region and advances the pull state
// machine. The pointer-identity check makes late completions of an aborted
// (and possibly recycled) migration no-ops.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) regionArrived(im *inMigration, region msg.Region, data []byte) {
	if k.in[im.pid] != im {
		return // aborted while the stream was in flight
	}
	im.streaming = false // the stream record was released by its completer
	k.armInWatchdog(im)
	im.bufs[region] = data
	switch region {
	case msg.RegionResident:
		im.stage = msg.RegionSwappable
		k.pullRegion(im)
	case msg.RegionSwappable:
		if k.killpoint(KPDestMidTransfer, im.pid) {
			return
		}
		im.stage = msg.RegionProgram
		k.pullRegion(im)
	case msg.RegionProgram:
		if k.killpoint(KPDestTransferred, im.pid) {
			return
		}
		k.assembleProcess(im)
	}
}

// assembleProcess thaws the three regions into a runnable process and
// sends OpMigrateEstablished (end of step 5, message 7).
func (k *Kernel) assembleProcess(im *inMigration) {
	err := k.thaw(im.p, im.bufs[msg.RegionResident], im.bufs[msg.RegionSwappable], im.bufs[msg.RegionProgram])
	if err != nil {
		k.failIncoming(im, err)
		return
	}
	k.relieveMemory()
	k.stats.MigrationsIn++
	im.established = true
	k.sendPIDMachine(addr.KernelAddr(im.src), msg.OpMigrateEstablished,
		msg.PIDMachine{PID: im.pid, Machine: k.machine}, nil)
	k.armInWatchdog(im) // the cleanup message must still arrive
}

func (k *Kernel) failIncoming(im *inMigration, cause error) {
	k.trace(trace.CatMigrate, "incoming-failed", fmt.Sprintf("%v: %v", im.pid, cause))
	k.eng.Cancel(im.watchdog)
	if im.streaming {
		// Unregister the in-flight pull so late packets go stray instead
		// of completing into a recycled record.
		if st, ok := k.xfersIn[im.xfer]; ok && st.im == im {
			delete(k.xfersIn, im.xfer)
			st.buf = nil
			k.putInStream(st)
		}
		im.streaming = false
	}
	p := im.p
	if p != nil {
		k.releaseImage(p)
		for p.queue.Len() > 0 {
			k.putMsg(p.queue.pop())
		}
	}
	delete(k.in, im.pid)
	k.delProc(im.pid)
	k.stats.MigrationsFailed++
	if p != nil {
		k.putProcRec(p)
	}
	k.putInMigration(im)
}

// handleMigrateCleanup is step 8: "The process is restarted in whatever
// state it was in before being migrated."
func (k *Kernel) handleMigrateCleanup(m *msg.Message) {
	c, err := msg.DecodeMigrateCleanup(m.Body)
	if err != nil {
		return
	}
	im, ok := k.in[c.PID]
	if !ok {
		// Already committed on watchdog timeout: this late cleanup
		// confirms the source made itself a forwarder, so no abort is
		// coming and the conflict flag can clear.
		if p := k.lookup(c.PID); p != nil && p.timeoutCommit {
			p.timeoutCommit = false
		}
		return
	}
	if k.killpoint(KPDestCleanup, c.PID) {
		return
	}
	k.eng.Cancel(im.watchdog)
	k.commitIncoming(im, int(c.Forwarded), false)
}

// commitIncoming finishes step 8 for an assembled process: drain the
// messages queued while incoming, restore the pre-migration state, and (if
// configured) follow the process with a stable-storage checkpoint. The
// migration record is released back to the pool at the end.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) commitIncoming(im *inMigration, forwarded int, viaTimeout bool) {
	delete(k.in, im.pid)
	p := im.p
	p.timeoutCommit = viaTimeout

	// Messages queued here while incoming: DELIVERTOKERNEL ones go to
	// the kernel now; the rest rotate back to the tail for the process.
	// The drain is bounded by the length at entry so rotated (and newly
	// arriving) messages are not re-examined.
	for n := p.queue.Len(); n > 0; n-- {
		hm := p.queue.pop()
		if hm.DTK {
			k.kernelMsg(hm)
			k.putMsg(hm)
		} else {
			p.queue.push(hm)
		}
	}

	switch p.prevState {
	case StateWaiting:
		if p.queue.Len() > 0 {
			k.enqueueRun(p)
		} else {
			p.state = StateWaiting
		}
	case StateSuspended:
		p.state = StateSuspended
	default:
		k.enqueueRun(p)
	}
	if viaTimeout {
		k.tracef(trace.CatMigrate, "step8-restart", "%v restarted as %v (committed on watchdog timeout)",
			trace.PID(p.id), trace.Str(p.state.String()))
	} else {
		k.tracef(trace.CatMigrate, "step8-restart", "%v restarted as %v (%d pending had been forwarded)",
			trace.PID(p.id), trace.Str(p.state.String()), trace.Int(forwarded))
	}
	if k.cfg.CheckpointOnArrival {
		_ = k.SaveCheckpoint(p.id)
	}
	k.putInMigration(im)
}

// --- the one codec: freeze / thaw -------------------------------------------

// frozen is a process's one serialized form: the three §3.1 regions that a
// migration streams and a checkpoint stores. resident and table are gather-
// encoded into scratch that survives recycling of the record embedding it;
// ctl and program are produced by the body/image and owned until release.
// swapHdr is the 4-byte length prefix of the swappable region
// (swapHdr‖table‖ctl), kept separate so handleMoveDataReq can stream the
// region as a three-vector gather without re-concatenating table and
// control state.
type frozen struct {
	resident []byte
	swapHdr  [4]byte
	table    []byte
	ctl      []byte
	program  []byte
}

func (f *frozen) swappableLen() int { return len(f.swapHdr) + len(f.table) + len(f.ctl) }

// freeze serializes p into f at this instant. It is the only encoder of a
// process: migration step 1 and Checkpoint both call it, so a checkpoint is
// the migration payload by construction (§1).
func freeze(f *frozen, p *Process) error {
	f.resident = appendResident(f.resident[:0], p)
	ctl, err := p.body.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	f.ctl = ctl
	f.table = p.links.AppendSnapshot(f.table[:0])
	binary.LittleEndian.PutUint32(f.swapHdr[:], uint32(len(f.table)))
	f.program = nil
	if p.image != nil {
		if f.program, err = p.image.Bytes(); err != nil {
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
	ctl, err := k.decodeSwappableInto(p, swappable)
	if err != nil {
		return fmt.Errorf("swappable state: %w", err)
	}
	p.kind = k.internKind(kind)
	body, err := k.cfg.Registry.New(p.kind)
	if err != nil {
		return err
	}
	if err := body.Restore(ctl); err != nil {
		return fmt.Errorf("restoring %s body: %w", p.kind, err)
	}
	p.body = body
	if len(program) > 0 {
		img := memory.NewImage(len(program), k.swap)
		if err := img.WriteAt(program, 0); err != nil {
			return err
		}
		if mh, ok := body.(proc.MemoryHolder); ok {
			mh.SetImage(img)
		}
		p.image = img
		k.memUsed += img.Size()
	}
	return nil
}

// appendResident gather-encodes the kernel process record moved as the
// non-swappable state (§6: "The non-swappable state uses about 250 bytes")
// into b.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func appendResident(b []byte, p *Process) []byte {
	imgSize := 0
	if p.image != nil {
		imgSize = p.image.Size()
	}
	b = append(b, byte(len(p.kind)))
	b = append(b, p.kind...)
	b = append(b, byte(p.prevState))
	if p.privileged {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(imgSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.cpuUsed))
	b = binary.LittleEndian.AppendUint64(b, p.msgsIn)
	b = binary.LittleEndian.AppendUint64(b, p.msgsOut)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.createdAt))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.queueHighWater))
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
	p.privileged = b[1] != 0
	p.cpuUsed = sim.Time(binary.LittleEndian.Uint64(b[6:]))
	p.msgsIn = binary.LittleEndian.Uint64(b[14:])
	p.msgsOut = binary.LittleEndian.Uint64(b[22:])
	p.createdAt = sim.Time(binary.LittleEndian.Uint64(b[30:]))
	if hw := int(binary.LittleEndian.Uint32(b[38:])); hw > p.queueHighWater {
		p.queueHighWater = hw
	}
	return kind, nil
}

// decodeSwappableInto rebuilds the link table in place into p's existing
// table (or one from the kernel's table free list), so an arriving process
// reuses the slot backing a departed one left behind, and returns the body
// control state that follows it.
func (k *Kernel) decodeSwappableInto(p *Process, b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("short swappable state")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, fmt.Errorf("truncated link table")
	}
	t := p.links
	if t == nil {
		if t = k.tableFree.get(); t == nil {
			t = &link.Table{}
		}
	}
	if err := link.RestoreTableInto(t, b[:n]); err != nil {
		return nil, err
	}
	p.links = t
	return b[n:], nil
}
