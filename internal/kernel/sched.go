package kernel

import (
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// enqueueRun puts a ready process on the run queue and arms the scheduler.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) enqueueRun(p *Process) {
	p.state = StateReady
	k.pushRun(p)
	k.maybeSchedule()
}

// pushRun appends p to the run queue.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) pushRun(p *Process) {
	p.onRunq = true
	k.runq.push(p)
}

// removeFromRunq drops p from the run queue (suspension, migration, kill).
// A process that is not queued — runSlice popped it, or it was waiting —
// costs no scan.
func (k *Kernel) removeFromRunq(p *Process) {
	if p.onRunq {
		p.onRunq = false
		k.runq.remove(p)
	}
}

// maybeSchedule arms the next scheduling slice if work is pending. The CPU
// model is one processor per machine: a slice "occupies" the CPU until
// cpuFreeAt even though the Go code runs instantaneously. The slice closure
// is bound once at construction (runSliceFn), so arming allocates nothing.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) maybeSchedule() {
	if k.sliceQueued || k.runq.Len() == 0 || k.crashed {
		return
	}
	k.sliceQueued = true
	at := k.eng.Now()
	if k.cpuFreeAt > at {
		at = k.cpuFreeAt
	}
	k.eng.At(at, "kernel:slice", k.runSliceFn)
}

// runSlice executes one scheduling quantum. The proc.Context handed to the
// body is the kernel's single reusable sliceCtx (converting the pointer to
// the interface allocates nothing); it is valid only for the duration of
// Step, which no body retains. Messages the body received during the step
// are released afterwards — a Delivery's Body aliases the pooled envelope
// and its lifetime contract is "until Step returns".
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) runSlice() {
	k.sliceQueued = false
	if k.runq.Len() == 0 || k.crashed {
		return
	}
	p := k.runq.pop()
	p.onRunq = false
	if p.state != StateReady {
		// Suspended or migrated while queued.
		k.maybeSchedule()
		return
	}
	ctx := &k.sliceCtx
	ctx.p = p
	ctx.msgsHandled = 0
	cost, st := p.body.Step(ctx, Quantum)
	for i, rm := range ctx.recvd {
		k.putMsg(rm)
		ctx.recvd[i] = nil
	}
	ctx.recvd = ctx.recvd[:0]
	ctx.p = nil

	busy := sim.Time(uint64(cost) * InstrCostNanos / 1000)
	if cost == 0 {
		busy = NativeStepCost
	}
	busy += sim.Time(ctx.msgsHandled) * NativeMsgCost
	if busy == 0 {
		busy = 1
	}
	now := k.eng.Now()
	if k.cpuFreeAt < now {
		k.cpuFreeAt = now
	}
	k.cpuFreeAt += busy + CtxSwitch
	p.cpuUsed += busy
	if k.cfg.LoadReportEvery > 0 { // only load reports read the deltas
		p.ext.cpuDelta += busy
	}
	k.stats.CPUBusy += busy
	k.stats.Slices++
	k.stats.CtxSwitches++

	if p.state != StateReady {
		// The body's own syscalls changed its state (e.g. a control
		// message suspended it mid-step); honor that.
		k.maybeSchedule()
		return
	}
	switch st.State {
	case proc.Runnable:
		k.pushRun(p)
	case proc.Blocked:
		if p.queue.Len() > 0 {
			k.pushRun(p) // spurious block; messages waiting
		} else {
			p.state = StateWaiting
			// A newly idle process is a swap candidate if memory is
			// tight.
			k.relieveMemory()
		}
	case proc.Exited:
		k.terminate(p, st.ExitCode, nil)
	case proc.Crashed:
		k.terminate(p, -1, st.Err)
	}
	k.maybeSchedule()
}

// terminate removes a process and, when the paper's forwarding-address
// garbage collection is enabled, sends a death notice backwards along the
// migration path (§4). The record goes back to procFree: p is dead to the
// caller when terminate returns.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) terminate(p *Process, code int32, err error) {
	p.state = StateDead
	k.removeFromRunq(p)
	k.releaseImage(p)
	for p.queue.Len() > 0 {
		k.putMsg(p.queue.pop())
	}
	k.delProc(p.id)
	k.dropStable(p.id)              // a dead process must not be revivable
	delete(k.coldView().runs, p.id) // forward counts kept while it lived here
	k.noteExit(p.id, ExitInfo{Code: code, Err: err, At: k.eng.Now()})
	if err != nil {
		k.stats.Crashes++
		k.trace(siteCrash, err.Error(), trace.PID(p.id))
	} else {
		k.stats.Exited++
		k.trace(siteExit, "", trace.PID(p.id), trace.Int(int(code)))
	}
	if k.cfg.ReclaimForwarders && p.cameFrom() != addr.NoMachine {
		k.sendDeathNoticeTo(p.id, p.cameFrom())
	}
	k.putProcRec(p)
}

// loadReport is a load-reporting kernel's report state (Kernel.rep): the
// armed report event, and the time and CPU-busy reading of the last report,
// from which the next one's CPU share is taken.
type loadReport struct {
	ev       sim.Event
	lastAt   sim.Time
	lastBusy sim.Time
}

// scheduleLoadReport arms the periodic load report to the process manager.
// Reports are weak events: they fire while the system is alive but do not
// keep an otherwise idle simulation running.
func (k *Kernel) scheduleLoadReport() {
	k.rep.ev = k.eng.AfterWeak(k.cfg.LoadReportEvery, "kernel:load-report", func() {
		if k.crashed {
			return
		}
		if !k.pmLink.IsNil() {
			k.sendLoadReport()
		}
		k.scheduleLoadReport()
	})
}

func (k *Kernel) sendLoadReport() {
	now := k.eng.Now()
	r := k.rep
	interval := now - r.lastAt
	if interval == 0 {
		interval = 1
	}
	busy := k.stats.CPUBusy - r.lastBusy
	pct := uint64(busy) * 100 / uint64(interval)
	if pct > 100 {
		pct = 100
	}
	procs := k.sortedProcs() // processes only: forwarding addresses are no records
	rep := msg.LoadReport{
		Machine:    k.machine,
		Ready:      sat[uint16](uint64(k.runq.Len())),
		ProcCount:  sat[uint16](uint64(len(procs))),
		MemUsedKB:  sat[uint32](uint64(k.memUsed / 1024)),
		CPUPercent: uint8(pct),
	}
	for _, p := range procs {
		if p.state == StateIncoming || p.privileged {
			continue
		}
		x := p.ext
		pl := msg.ProcLoad{
			PID:       p.id,
			CPUMicros: sat[uint32](uint64(x.cpuDelta)),
			MsgsOut:   sat[uint32](x.msgsDelta),
		}
		if img := p.image(); img != nil {
			pl.MemKB = sat[uint32](uint64(img.Size() / 1024))
		}
		var top uint64
		for _, peer := range sortedMachines(x.commDelta) {
			if n := x.commDelta[peer]; n > top {
				pl.TopPeer, top = peer, n
			}
		}
		pl.TopPeerMsgs = sat[uint32](top)
		rep.Procs = append(rep.Procs, pl)
		x.cpuDelta = 0
		x.msgsDelta = 0
		clear(x.commDelta)
	}
	r.lastAt = now
	r.lastBusy = k.stats.CPUBusy
	m := k.newControl(msg.OpLoadReport, k.pmLink.Addr)
	m.Body = rep.AppendTo(m.Body[:0])
	k.route(m)
}

// sat narrows a count to a load report field, saturating at the field's
// maximum: an overloaded machine reports "at least this much" rather than a
// count wrapped to almost nothing.
func sat[T uint16 | uint32](v uint64) T {
	if hi := uint64(^T(0)); v > hi {
		return T(hi)
	}
	return T(v)
}

// sortedProcs returns local processes in deterministic (pid) order —
// required because map iteration order would otherwise leak
// nondeterminism into the simulation.
func (k *Kernel) sortedProcs() []*Process {
	var out []*Process
	k.eachProc(func(p *Process) { out = append(out, p) })
	sort.Slice(out, func(i, j int) bool { return pidLess(out[i].id, out[j].id) })
	return out
}

func sortedMachines(m map[addr.MachineID]uint64) []addr.MachineID {
	out := make([]addr.MachineID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
