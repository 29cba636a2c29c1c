package kernel

// Observability wiring: how one kernel reports into the cluster's obs
// plane. Registration is cold and happens once at boot (core.New) or in a
// test harness; the only hot-path additions anywhere in the kernel are the
// nil-checked Histogram.Observe in enqueue and ledgerForward in forward —
// both guarded by TestHotPathZeroAlloc running with obs attached.

import (
	"strconv"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// adminNames name the admin_sent.<op> rows AppendMetrics renders from
// Stats.AdminSent, indexed by op: the administrative messages of §3.1 (refusal
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

// SetObs attaches the observability plane to this kernel: reg (if non-nil)
// reads the kernel's rows at snapshot time (AppendMetrics), and led (if
// non-nil) becomes the store of this kernel's migration records: one
// MigrationRecord per completed outbound migration with post-completion
// forward/link-update attribution, which Reports reads back. Without one
// the kernel keeps its records in a ledger of its own. Attach led before
// the first migration completes: a record stays in the ledger it was added
// to, and a forwarding address names it by its index there.
//
// Registration holds no name, closure or histogram: the kernel is one
// interface value in reg, and the delivery-latency histogram is allocated
// at the first enqueue it observes. Call at most once per registry: metric
// names are unique per machine.
func (k *Kernel) SetObs(reg *obs.Registry, led *obs.Ledger) {
	if led != nil {
		k.led = led
	}
	if reg == nil {
		return
	}
	k.observed = true
	reg.AddRows(k)
}

// AppendMetrics renders this kernel's rows under "kernel.m<id>.": every
// counter of the hot and the cold part through the registry's field-derived
// rule (their fields carry Stats' names and tags, so the rows are Stats'
// rows; a kernel without a cold record renders the cold rows as zero, and
// no Stats copy is made), an admin_sent.<op> row per named AdminSent
// element, and the computed rows — admin_total (the sum over AdminSent),
// the envelope pool levels through PoolStats (the registry view of the
// conservation law news == free + held that the chaos invariant checker
// audits) and deliver_latency_us, the one kernel-owned histogram: the
// delivery latency of every message put on a process queue, user messages,
// kernel completions and fired timers alike (SentAt stamp to queue
// insertion), in simulated µs, empty until the first observation. A fired
// timer counts from its fire: LocalLatency on its normal path, where the
// hop queues the mark with no envelope (pending.hop), and the fire's stamp
// to insertion through a forward or a hold. A queued timer waits as a
// mark that keeps no SentAt, so one resent by step 6 or redelivered after
// an aborted migration counts from the resend, not from its first firing.
func (k *Kernel) AppendMetrics(dst []obs.Metric) []obs.Metric {
	p := "kernel.m" + strconv.Itoa(int(k.machine)) + "."
	c := k.coldView()
	dst = obs.AppendStruct(dst, p, &k.stats)
	dst = obs.AppendStruct(dst, p, &c.coldStats)
	for op, name := range adminNames {
		if name != "" {
			dst = append(dst, obs.Metric{Name: p + "admin_sent." + name, Kind: "counter", Value: c.AdminSent[op]})
		}
	}
	news, free, held := k.PoolStats()
	return append(dst,
		obs.Metric{Name: p + "admin_total", Kind: "counter", Value: adminTotal(&c.AdminSent)},
		obs.Metric{Name: p + "pool_news", Kind: "gauge", Value: uint64(news)},
		obs.Metric{Name: p + "pool_free", Kind: "gauge", Value: uint64(free)},
		obs.Metric{Name: p + "pool_held", Kind: "gauge", Value: uint64(held)},
		k.hLat.Metric(p+"deliver_latency_us"))
}

// observeFirstLatency allocates the delivery-latency histogram at the first
// enqueue of a kernel with a registry attached, so a machine that never
// queues a message carries none. Out of line: enqueue's fast path
// stays one nil check.
//
//go:noinline
func (k *Kernel) observeFirstLatency(v uint64) {
	k.hLat = new(obs.Histogram)
	k.hLat.Observe(v)
}

// ledgerForward is the attribution half of forward: it charges a §4
// forward of m (and the §5 link update it will trigger) to the migration
// that left the forwarding address behind (rec, its fwd.rec), and tracks the
// per-sender stale-send run length whose maximum is the §6 "convergence
// after 1–2 forwards" measurement. A sender's run stops growing once its
// link-update lands, because repaired senders stop arriving here at all.
func (k *Kernel) ledgerForward(rec uint32, m *msg.Message) {
	r := k.led.At(rec)
	r.ForwardsAbsorbed++
	if !k.shouldSendLinkUpdate(m) {
		return
	}
	r.LinkUpdatesSent++
	c := k.cold()
	runs := c.runs[m.To.ID]
	if runs == nil {
		runs = make(map[addr.ProcessID]uint64)
		if c.runs == nil {
			c.runs = make(map[addr.ProcessID]map[addr.ProcessID]uint64)
		}
		c.runs[m.To.ID] = runs
	}
	runs[m.From.ID]++
	if n := runs[m.From.ID]; n > r.ConvergenceForwards {
		r.ConvergenceForwards = n
	}
}
