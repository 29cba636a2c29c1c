package kernel

import (
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/trace"
)

// kernelMsg handles a message received by the kernel itself: frames
// addressed to the kernel pseudo-process, and DELIVERTOKERNEL messages that
// arrived at a local process's queue (§2.2). The caller owns m and releases
// it afterwards; handlers must not retain m or aliases of its Body.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) kernelMsg(m *msg.Message) {
	switch m.Kind {
	case msg.KindLinkUpdate:
		k.applyLinkUpdate(m)
	case msg.KindData:
		k.handleDataPacket(m)
	case msg.KindAck:
		k.handleAck(m)
	case msg.KindControl:
		k.kernelControl(m)
	default:
		// A user message addressed to a kernel: nothing meaningful.
		k.stats.DeadLetters++
	}
}

func (k *Kernel) kernelControl(m *msg.Message) {
	// --- migration protocol (§3.1): the table in migrate.go ---
	if row := protocolRow(m.Op); row != nil {
		k.migrationMsg(row, m)
		return
	}
	switch m.Op {
	// --- process control (§2.2: control follows the process) ---
	case msg.OpSuspend:
		k.handleSuspend(m)
	case msg.OpResume:
		k.handleResume(m)
	case msg.OpKill:
		if p := k.lookup(m.To.ID); p != nil {
			k.stats.Kills++
			k.terminate(p, -1, fmt.Errorf("killed by %v", m.From.ID))
		}
	case msg.OpCreateProcess:
		k.handleCreateProcess(m)

	// --- move-data facility (§2.2) ---
	case msg.OpMoveRead:
		k.handleMoveRead(m)
	case msg.OpMoveReadDone:
		// Only reaches the kernel on the failure path; success arrives
		// as a reassembled stream.
		k.handleMoveReadFailed(m)

	// --- forwarding machinery ---
	case msg.OpDeathNotice:
		k.handleDeathNotice(m)
	case msg.OpNotDeliverable:
		k.handleNotDeliverable(m)
	case msg.OpLocateReply:
		k.handleLocateReply(m)
	case msg.OpEagerUpdate:
		k.applyEagerUpdate(m)
	case msg.OpSearchQuery:
		k.handleSearchQuery(m)

	default:
		k.trace(siteUnknownControl, "", trace.Name(m.Op))
	}
}

func (k *Kernel) handleSuspend(m *msg.Message) {
	p := k.lookup(m.To.ID)
	if p == nil {
		return
	}
	switch p.state {
	case StateReady:
		k.runq.remove(p)
		p.prevState = StateReady
		p.state = StateSuspended
	case StateWaiting:
		p.prevState = StateWaiting
		p.state = StateSuspended
	}
	k.trace(siteSuspend, "", trace.PID(p.id))
}

func (k *Kernel) handleResume(m *msg.Message) {
	p := k.lookup(m.To.ID)
	if p == nil || p.state != StateSuspended {
		return
	}
	if p.prevState == StateWaiting && p.queue.Len() == 0 {
		p.state = StateWaiting
	} else {
		k.enqueueRun(p)
	}
	k.trace(siteResume, "", trace.PID(p.id))
}

func (k *Kernel) handleCreateProcess(m *msg.Message) {
	req, err := msg.DecodeCreateProcess(m.Body)
	if err != nil || k.cfg.Programs == nil {
		k.replyCreateDone(m.From, addr.NilPID, req.Tag)
		return
	}
	spec, err := k.cfg.Programs(req.Name, req.Args)
	if err != nil {
		k.trace(siteCreateFail, req.Name+": "+err.Error())
		k.replyCreateDone(m.From, addr.NilPID, req.Tag)
		return
	}
	pid, err := k.Spawn(spec)
	if err != nil {
		k.trace(siteCreateFail, req.Name+": "+err.Error())
	}
	k.replyCreateDone(m.From, pid, req.Tag)
}

func (k *Kernel) replyCreateDone(to addr.ProcessAddr, pid addr.ProcessID, tag uint16) {
	d := msg.CreateDone{PID: pid, Machine: k.machine, Tag: tag}
	m := k.newControl(msg.OpCreateDone, to)
	m.Body = d.AppendTo(m.Body[:0])
	k.route(m)
}
