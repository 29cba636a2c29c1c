package kernel

// Observability wiring: how one kernel reports into the cluster's obs
// plane. Registration is cold and happens once at boot (core.New) or in a
// test harness; the only hot-path additions anywhere in the kernel are the
// nil-checked Histogram.Observe in enqueue and the nil-checked
// ledgerForward dispatch in forward — both guarded by TestHotPathZeroAlloc
// running with obs attached.

import (
	"strconv"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// adminNames are the element names of every kernel's Stats.AdminSent
// registration, indexed by op: the administrative messages of §3.1 (refusal
// included) plus the abort used on fault paths get an admin_sent.<op> row,
// every other op none.
var adminNames = func() []string {
	names := make([]string, msg.OpCount)
	for _, op := range []msg.Op{
		msg.OpMigrateRequest, msg.OpMigrateAsk, msg.OpMigrateAccept,
		msg.OpMigrateRefuse, msg.OpMoveDataReq, msg.OpMigrateEstablished,
		msg.OpMigrateCleanup, msg.OpMigrateDone, msg.OpMigrateAbort,
	} {
		names[op] = op.String()
	}
	return names
}()

// SetObs attaches the observability plane to this kernel: every Stats
// counter becomes a metric in reg under "kernel.m<id>." (the Stats struct
// stays the single owner and its fields the single declaration; the registry
// reads them live at snapshot time), a registry-owned delivery-latency
// histogram starts observing enqueue, and led (if non-nil) becomes the store
// of this kernel's migration records: one MigrationRecord per completed
// outbound migration with post-completion forward/link-update attribution,
// which Reports reads back. Without one the kernel keeps its records in a
// ledger of its own. Attach led before the first migration completes: a
// record stays in the ledger it was added to.
//
// Either argument may be nil to attach only half the plane. Call at most
// once per registry: metric names are unique per machine.
func (k *Kernel) SetObs(reg *obs.Registry, led *obs.Ledger) {
	k.led = led
	if reg == nil {
		return
	}
	p := "kernel.m" + strconv.Itoa(int(k.machine)) + "."
	reg.SampleStruct(p, &k.stats)
	reg.SampleArray(p+"admin_sent.", &k.stats.AdminSent, adminNames)

	// Computed, not stored: the sum over AdminSent.
	reg.Sample(p+"admin_total", k.stats.AdminTotal)

	// Computed, not stored: envelope pool levels through PoolStats (held
	// walks the process queues; free is a list length). The registry view
	// of the conservation law (news == free + held) the chaos invariant
	// checker audits.
	reg.SampleGauge(p+"pool_news", func() uint64 { n, _, _ := k.PoolStats(); return uint64(n) })
	reg.SampleGauge(p+"pool_free", func() uint64 { _, f, _ := k.PoolStats(); return uint64(f) })
	reg.SampleGauge(p+"pool_held", func() uint64 { _, _, h := k.PoolStats(); return uint64(h) })

	// The one registry-owned kernel metric: user-message delivery latency
	// (SentAt stamp to queue insertion) in simulated µs.
	k.hLat = reg.Histogram(p + "deliver_latency_us")
}

// ledgerForward is the cold attribution half of forward: it charges a §4
// forward (and the §5 link update it will trigger) to the migration that
// left this forwarding address behind, and tracks the per-sender stale-send
// run length whose maximum is the §6 "convergence after 1–2 forwards"
// measurement. A sender's run stops growing once its link-update lands,
// because repaired senders stop arriving here at all.
func (k *Kernel) ledgerForward(f *Process, m *msg.Message) {
	rec := f.obsRec
	rec.ForwardsAbsorbed++
	if !k.shouldSendLinkUpdate(m) {
		return
	}
	rec.LinkUpdatesSent++
	if f.fwdSenders == nil {
		f.fwdSenders = make(map[addr.ProcessID]uint64)
	}
	f.fwdSenders[m.From.ID]++
	if n := f.fwdSenders[m.From.ID]; n > rec.ConvergenceForwards {
		rec.ConvergenceForwards = n
	}
}
