package kernel

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/trace"
)

// This file is the kernel half of the fault-injection plane (ISSUE 4): named
// kill-points at each step of the §3.1 migration protocol, crash/restart
// with checkpoint revival from simulated stable storage (§1), and the §4
// "search" escape hatch for messages whose forwarding addresses a crash
// orphaned ("Occasionally a message will arrive for a process that is
// neither resident nor has a forwarding address... the only recourse is to
// search for the process").

// KillPoint names a protocol stage at which a chaos scenario may crash the
// source or destination kernel. The eight points cover the eight steps of
// §3.1: two on the source before the transfer, three on the destination
// during it, two on the source at commit time, one on the destination at
// restart time.
type KillPoint uint8

const (
	// KPSourceFrozen: source, end of step 1 — process frozen and payloads
	// snapshotted, the ask not yet sent.
	KPSourceFrozen KillPoint = iota + 1
	// KPSourceAsked: source, end of step 2 — ask sent, watchdog not armed.
	KPSourceAsked
	// KPDestAllocated: destination, step 3 — empty state allocated, the
	// accept not yet sent.
	KPDestAllocated
	// KPDestMidTransfer: destination, step 4 — resident and swappable
	// regions buffered, program pull not yet issued.
	KPDestMidTransfer
	// KPDestTransferred: destination, end of step 5 — all three regions
	// buffered, the process not yet assembled, established not sent.
	KPDestTransferred
	// KPSourceEstablished: source, start of step 6 — established received,
	// pending queue not yet forwarded, process state intact.
	KPSourceEstablished
	// KPSourceCommitted: source, end of step 7 — process state reclaimed,
	// cleanup not yet sent (the forwarding address enters the table with
	// its ledger record, after message 9).
	KPSourceCommitted
	// KPDestCleanup: destination, step 8 — cleanup received, the process
	// not yet restarted.
	KPDestCleanup
)

// KillPointCount is the number of defined kill-points.
const KillPointCount = int(KPDestCleanup)

// KillPoints lists all kill-points in protocol order (chaos drivers cycle
// through it for deterministic coverage).
func KillPoints() []KillPoint {
	out := make([]KillPoint, 0, KillPointCount)
	for kp := KPSourceFrozen; kp <= KPDestCleanup; kp++ {
		out = append(out, kp)
	}
	return out
}

func (kp KillPoint) String() string {
	switch kp {
	case KPSourceFrozen:
		return "src-frozen"
	case KPSourceAsked:
		return "src-asked"
	case KPDestAllocated:
		return "dst-allocated"
	case KPDestMidTransfer:
		return "dst-mid-transfer"
	case KPDestTransferred:
		return "dst-transferred"
	case KPSourceEstablished:
		return "src-established"
	case KPSourceCommitted:
		return "src-committed"
	case KPDestCleanup:
		return "dst-cleanup"
	default:
		return fmt.Sprintf("killpoint(%d)", uint8(kp))
	}
}

// SetFaultHook installs the chaos callback invoked at each kill-point with
// the migrating pid. The hook may call Crash(); the interrupted handler then
// returns immediately, freezing the machine mid-protocol.
func (k *Kernel) SetFaultHook(fn func(kp KillPoint, pid addr.ProcessID)) {
	k.cold().faultHook = fn
}

// killpoint fires the fault hook (if any) and reports whether the hook
// crashed this kernel — in which case the calling handler must abandon the
// protocol step exactly where it stands.
func (k *Kernel) killpoint(kp KillPoint, pid addr.ProcessID) bool {
	if hook := k.coldView().faultHook; hook != nil {
		hook(kp, pid)
	}
	return k.crashed
}

// --- stable storage ---------------------------------------------------------

// SaveCheckpoint writes a checkpoint of a local process to this kernel's
// simulated stable storage, where Restart finds it after a crash (§1: "If
// the information necessary to transport a process is saved in stable
// storage, it may be possible to 'migrate' a process from a processor that
// has crashed to a working one."). It moves with the process (the source
// drops it on message 7, the destination writes its own on message 8) and is
// invalidated when the process dies.
func (k *Kernel) SaveCheckpoint(pid addr.ProcessID) error {
	b, err := k.Checkpoint(pid)
	if err == nil {
		k.keepStable(pid, b)
	}
	return err
}

// keepStable writes b to stable storage as pid's checkpoint.
func (k *Kernel) keepStable(pid addr.ProcessID, b []byte) {
	c := k.cold()
	if c.stable == nil {
		c.stable = make(map[addr.ProcessID][]byte)
	}
	c.stable[pid] = b
	c.CheckpointsSaved++
}

// dropStable forgets pid's checkpoint, if stable storage holds one.
func (k *Kernel) dropStable(pid addr.ProcessID) {
	delete(k.coldView().stable, pid)
}

// StableCheckpoints lists the pids with a checkpoint in stable storage, in
// deterministic order.
func (k *Kernel) StableCheckpoints() []addr.ProcessID {
	return sortedPIDs(k.coldView().stable)
}

// --- crash / restart --------------------------------------------------------

// Restart recovers a crashed kernel: everything volatile — processes,
// forwarding addresses, link tables, in-flight migrations, held messages —
// is wiped (with full accounting), the machine rejoins the network, and
// checkpointed processes are revived from stable storage. The wipe is the
// paper's §4 fragility made concrete: every forwarding address this kernel
// held is gone, and traffic that depended on one now relies on the search
// fallback below.
func (k *Kernel) Restart() error {
	if !k.crashed {
		return fmt.Errorf("kernel %v: not crashed", k.machine)
	}

	// Wipe volatile process state, accounting for every destroyed message
	// and process so the cluster ledger still balances, and abandon
	// in-flight migrations: their watchdogs are canceled (the closures also
	// carry a crashed-guard, for events already past Cancel's reach).
	c := k.cold()
	for _, p := range k.sortedProcs() {
		if mg := p.mig(); mg != nil {
			k.eng.Cancel(mg.watchdog)
			c.MigrationsFailed++
		}
		for p.queue.Len() > 0 {
			k.noteCrashWiped(p.queue.pop())
		}
		if img := p.image(); img != nil {
			img.Discard()
		}
		if c.lostPIDs == nil {
			c.lostPIDs = make(map[addr.ProcessID]bool)
		}
		c.lostPIDs[p.id] = true
		c.CrashLostProcs++
	}
	for _, pid := range sortedPIDs(c.pendingLocate) {
		for _, m := range c.pendingLocate[pid] {
			k.noteCrashWiped(m)
		}
	}

	k.procs = nil
	for _, pg := range k.local {
		for i := range pg {
			pg[i].p = nil // the exit records survive, as k.exits does
		}
	}
	k.procFree = nil    // the parked records go to the GC with the wiped ones
	k.runq = runQueue{} // the queued records go with the wiped ones
	c.fwds, c.runs, c.ForwarderBytes = nil, nil, 0
	c.xfersIn = nil
	c.moveOps = nil
	c.pendingLocate = nil
	k.memUsed = 0
	k.cpuFreeAt = k.eng.Now()

	k.crashed = false
	c.Restarts++
	k.net.SetDown(k.machine, false)
	k.trace(siteRestart, "", trace.Machine(k.machine), trace.Int(int(c.Restarts)))

	// Revive checkpointed processes in deterministic order. A revived pid
	// is no longer lost.
	for _, pid := range k.StableCheckpoints() {
		if _, err := k.Revive(c.stable[pid]); err == nil {
			delete(c.lostPIDs, pid)
		} else {
			k.trace(siteReviveFail, err.Error(), trace.PID(pid))
		}
	}

	// Re-arm the periodic load report (its weak event chain died with the
	// crash-guard; Cancel tolerates an already-fired event).
	if k.cfg.LoadReportEvery > 0 {
		k.eng.Cancel(k.rep.ev)
		k.scheduleLoadReport()
	}
	return nil
}

// noteCrashWiped accounts one queued message destroyed by a crash and
// recycles its envelope (the pool itself survives the crash, keeping the
// cluster-wide envelope conservation exact).
func (k *Kernel) noteCrashWiped(m *msg.Message) {
	k.cold().CrashWipedMsgs++
	k.putBounced(m)
}

// dropCrashed accounts a message that reached this kernel while it was
// down (stale local-delivery events, frames racing the crash instant).
func (k *Kernel) dropCrashed(m *msg.Message) {
	k.cold().DroppedWhileCrashed++
	k.putBounced(m)
}

// Restarts reports how many times this kernel recovered from a crash.
func (k *Kernel) Restarts() uint64 { return k.coldView().Restarts }

// PendingMigrations reports in-flight migrations (both directions) — zero
// at quiescence on a live kernel, or the migration is stuck.
func (k *Kernel) PendingMigrations() (n int) {
	k.eachProc(func(p *Process) {
		if p.mig() != nil {
			n++
		}
	})
	return n
}

// LostPIDs lists processes wiped by a crash and never revived, in
// deterministic order.
func (k *Kernel) LostPIDs() []addr.ProcessID {
	return sortedPIDs(k.coldView().lostPIDs)
}

// PoolStats reports this kernel's envelope-pool ledger: envelopes the pool
// constructed, envelopes on the free list, and pooled envelopes currently
// held in process queues and locate buffers (a queued timer's mark is not
// an envelope and counts in none of them). At quiescence, cluster-wide,
// ΣNews == ΣFree + ΣHeld — anything else is a leaked or double-released
// envelope (chaos.CheckInvariants asserts this).
func (k *Kernel) PoolStats() (news, free, held int) {
	news, free = k.pool.News(), k.pool.Free()
	k.eachProc(func(p *Process) {
		for i := 0; i < p.queue.Len(); i++ {
			held += countPooled(p.queue.at(i))
		}
	})
	for _, msgs := range k.coldView().pendingLocate {
		for _, m := range msgs {
			held += countPooled(m)
		}
	}
	return news, free, held
}

func countPooled(m *msg.Message) int {
	n := 0
	if m.Pooled() {
		n++
	}
	if m.Orig != nil && m.Orig.Pooled() {
		n++
	}
	return n
}

// --- netw.FrameOwner --------------------------------------------------------

// FramePool implements netw.FrameOwner: the network draws from this pool the
// wire copies of frames this kernel is about to receive from its own shard
// and of frames it sends to another, and on a sharded cluster joins it to
// the shard's return pool, so the ordinary putMsg after delivery recycles
// every copy — parked until the barrier if it came from another shard — and
// PoolStats audits them.
func (k *Kernel) FramePool() *msg.Pool { return k.pool }

// --- the §4 search escape hatch ---------------------------------------------

// searchFallback handles a message for a pid this kernel has no record of,
// on a kernel that has crashed at least once — the orphaned-forwarding-
// address case. Returns true if it consumed (rerouted or held) the message.
//
// Two regimes:
//   - Foreign pid: reroute once toward the pid's creator machine. Births
//     are the one location fact no crash here can erase, and the creator
//     either hosts the process, holds a forwarder, has its exit record, or
//     runs the broadcast search below.
//   - Home-born pid: hold the message and broadcast a search query to every
//     machine; the first useful reply resends held traffic (reusing the
//     locate-reply machinery). A strong timeout dead-letters the held
//     messages if nobody answers.
func (k *Kernel) searchFallback(m *msg.Message) bool {
	pid := m.To.ID
	if m.Searched {
		return false // one search per message: no reroute loops
	}
	if _, exited := k.Exit(pid); exited {
		return false // authoritatively dead here
	}
	if pid.Creator != k.machine {
		m.Searched = true
		m.To.LastKnown = pid.Creator
		k.cold().SearchForwards++
		k.trace(siteSearchReroute, "", trace.Name(m.Kind), trace.PID(pid), trace.Machine(pid.Creator))
		k.route(m)
		return true
	}
	c := k.cold()
	if c.lostPIDs[pid] {
		return false // wiped here with no checkpoint: it is gone for good
	}
	if len(k.cfg.Machines) == 0 {
		return false // nobody to ask
	}
	if len(c.pendingLocate[pid]) >= PendingLocateCap {
		return false // overflow: caller dead-letters
	}
	if c.pendingLocate == nil {
		c.pendingLocate = make(map[addr.ProcessID][]*msg.Message)
	}
	c.pendingLocate[pid] = append(c.pendingLocate[pid], m) //demos:owner locate — held (capped) until the search reply resubmits or dead-letters it.
	if len(c.pendingLocate[pid]) > 1 {
		return true // search already outstanding
	}
	c.SearchesSent++
	k.trace(siteSearchBroadcast, "", trace.PID(pid))
	for _, mach := range k.cfg.Machines {
		if mach == k.machine {
			continue
		}
		q := k.newControl(msg.OpSearchQuery, addr.KernelAddr(mach))
		q.Body = msg.PIDMachine{PID: pid, Machine: k.machine}.AppendTo(q.Body[:0])
		k.route(q)
	}
	k.armSearchTimeout(pid)
	return true
}

// armSearchTimeout bounds a broadcast search: messages still held when it
// fires become dead letters, keeping pendingLocate from pinning envelopes
// forever when every peer is silent (down, partitioned, or ignorant).
func (k *Kernel) armSearchTimeout(pid addr.ProcessID) {
	k.eng.After(k.cfg.MigrateTimeout, "kernel:search-timeout", func() {
		if k.crashed {
			return
		}
		pl := k.coldView().pendingLocate
		held := pl[pid]
		if len(held) == 0 {
			return
		}
		delete(pl, pid)
		k.stats.DeadLetters += uint64(len(held))
		k.trace(siteSearchTimeout, "", trace.PID(pid), trace.Int(len(held)))
		for _, hm := range held {
			k.putBounced(hm)
		}
	})
}

// handleSearchQuery answers a peer's broadcast search from local knowledge:
// a live (or arriving) copy here, a forwarding address, or an exit record.
// A kernel that knows nothing stays silent — the searcher's timeout, not a
// flood of "don't know" replies, resolves the negative case.
func (k *Kernel) handleSearchQuery(m *msg.Message) {
	pm, err := msg.DecodePIDMachine(m.Body)
	if err != nil {
		return
	}
	var at addr.MachineID
	if k.lookup(pm.PID) != nil {
		at = k.machine
	} else if f, ok := k.coldView().fwds[pm.PID]; ok {
		at = f.to
	} else if _, exited := k.Exit(pm.PID); exited {
		at = addr.NoMachine // authoritatively dead
	} else {
		return
	}
	k.trace(siteSearchReply, "", trace.PID(pm.PID), trace.Machine(at), trace.Machine(pm.Machine))
	r := k.newControl(msg.OpLocateReply, addr.KernelAddr(pm.Machine))
	r.Body = msg.PIDMachine{PID: pm.PID, Machine: at}.AppendTo(r.Body[:0])
	k.route(r)
}

// sortedPIDs returns a pid-keyed map's keys in pid order — the
// deterministic-order helper shared by the fault-plane accessors.
func sortedPIDs[V any](m map[addr.ProcessID]V) []addr.ProcessID {
	out := make([]addr.ProcessID, 0, len(m))
	for pid := range m {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return pidLess(out[i], out[j]) })
	return out
}

// pidLess orders pids by (creator, local UID), the kernel's one pid order.
func pidLess(a, b addr.ProcessID) bool {
	if a.Creator != b.Creator {
		return a.Creator < b.Creator
	}
	return a.Local < b.Local
}
