package chaos_test

// Observability-plane audits over the chaos harness: same-seed runs must
// export byte-identical snapshots and timelines, and the single-ownership
// rule for stats (kernel owns protocol counts, netw owns wire counts) must
// reconcile exactly on a lossless run.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// TestObsExportDeterministic runs the full fault schedule twice with one
// seed and demands byte-identical obs exports: the text metrics snapshot
// and the Chrome trace_event timeline JSON. Sorted metric names, fixed
// registration order, and struct-driven JSON encoding are what make this
// hold — any map-range sneaking into an exporter breaks it (and demoslint
// maporder flags it statically).
func TestObsExportDeterministic(t *testing.T) {
	p := shortParams()
	a := runSoak(t, 4242, p)
	b := runSoak(t, 4242, p)
	if len(a.obsText) == 0 || len(a.timeline) == 0 {
		t.Fatal("empty obs export")
	}
	if !bytes.Equal(a.obsText, b.obsText) {
		t.Fatalf("metrics snapshots differ between same-seed runs (%dB vs %dB)",
			len(a.obsText), len(b.obsText))
	}
	if !bytes.Equal(a.timeline, b.timeline) {
		t.Fatalf("timeline JSON differs between same-seed runs (%dB vs %dB)",
			len(a.timeline), len(b.timeline))
	}
}

// TestStatsSingleSource is the never-disagree audit for the ownership
// split between kernel.Stats (protocol-level: packets and acks initiated)
// and the netw flat arrays (wire-level: frames by kind). On a lossless
// no-fault soak every data packet and ack crosses the wire exactly once,
// so the two layers must reconcile exactly; the registry reads each number
// from exactly one of them (CheckRegistry, run inside runSoak, already
// failed the run if any sampler disagreed with its owning struct).
func TestStatsSingleSource(t *testing.T) {
	p := shortParams()
	p.chaosOn = false
	p.lossy = false
	p.maxKills = 0
	res := runSoak(t, 7, p)
	for _, v := range res.violations {
		t.Errorf("invariant violated: %s", v)
	}

	c := res.cluster
	var dataSent, acksSent, acksRecv uint64
	for m := 1; m <= p.machines; m++ {
		ks := c.Kernel(m).Stats()
		dataSent += ks.DataPacketsSent
		acksSent += ks.AcksSent
		acksRecv += ks.AcksReceived
	}
	ns := c.NetStats()
	if dataSent == 0 {
		t.Fatal("soak moved no data packets; the audit is vacuous")
	}
	if wire := ns.ByKind[msg.KindData]; dataSent != wire {
		t.Errorf("kernel counted %d data packets sent, netw carried %d data frames", dataSent, wire)
	}
	if wire := ns.ByKind[msg.KindAck]; acksSent != wire {
		t.Errorf("kernel counted %d acks sent, netw carried %d ack frames", acksSent, wire)
	}
	if acksSent != acksRecv {
		t.Errorf("acks sent %d != acks received %d on a lossless network", acksSent, acksRecv)
	}

	// Forwarder storage is owned once too. The gauge can sit below
	// (installed - reclaimed) * 8: a process migrating back onto a machine
	// that still holds its forwarding address supersedes the record, which
	// releases the storage without a death-notice reclaim. It can never
	// exceed the bound or go fractional.
	for m := 1; m <= p.machines; m++ {
		ks := c.Kernel(m).Stats()
		bound := (ks.ForwardersInstalled - ks.ForwardersReclaimed) * kernel.ForwarderWireSize
		if ks.ForwarderBytes%kernel.ForwarderWireSize != 0 || ks.ForwarderBytes > bound {
			t.Errorf("m%d forwarder bytes %d out of bounds (installed %d, reclaimed %d, record size %d)",
				m, ks.ForwarderBytes, ks.ForwardersInstalled, ks.ForwardersReclaimed,
				kernel.ForwarderWireSize)
		}
	}
}

// structRows is a row owner that renders one stats struct under a prefix.
type structRows struct {
	prefix string
	ptr    any
}

func (r structRows) AppendMetrics(dst []obs.Metric) []obs.Metric {
	return obs.AppendStruct(dst, r.prefix, r.ptr)
}

// TestCheckRegistryCatchesStaleCopy wires a registry to a *copy* of machine
// 1's Stats — a second live location for the counters, which is what
// CheckRegistry exists to catch. The copy is right when taken; after one
// more migration every field that moved disagrees with the live struct, and
// CheckRegistry must say so (and must stay silent about the real registry).
func TestCheckRegistryCatchesStaleCopy(t *testing.T) {
	c, err := core.New(core.Options{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	stale := c.Kernel(1).Stats()
	reg := obs.NewRegistry()
	reg.AddRows(structRows{"kernel.m1.", &stale})

	if err := c.Migrate(pid, 2); err != nil {
		t.Fatal(err)
	}
	c.Run()
	good := c.ObsSnapshot()
	if bad := chaos.CheckRegistry(c, good); len(bad) != 0 {
		t.Fatalf("the cluster's own registry fails the audit: %v", bad)
	}

	// The doctored snapshot is the real one with machine 1's derived rows
	// read from the stale copy instead.
	doctored := obs.Snapshot{AtMicros: good.AtMicros, Metrics: append([]obs.Metric(nil), good.Metrics...)}
	staleSnap := reg.Snapshot(c.Now())
	for i, m := range doctored.Metrics {
		if sm, ok := staleSnap.Get(m.Name); ok {
			doctored.Metrics[i] = sm
		}
	}
	bad := chaos.CheckRegistry(c, doctored)
	if len(bad) == 0 {
		t.Fatal("a registry reading a stale copy of kernel.Stats passed the audit")
	}
	var sawMigration bool
	for _, v := range bad {
		if !strings.Contains(v, "kernel.m1.") {
			t.Errorf("violation outside the doctored rows: %s", v)
		}
		sawMigration = sawMigration || strings.Contains(v, "kernel.m1.migrations_out = 0, struct says 1")
	}
	if !sawMigration {
		t.Errorf("migrations_out not among the reported rows: %v", bad)
	}
}

// TestPoolLedgerWithTimersAcrossCrashRestart: a process timer waits inside
// an engine event for simulated milliseconds, not the 30 µs of a local hop,
// and the kernel's pending record for it holds no envelope until it fires.
// So the envelope ledger (ΣNews == ΣFree + ΣHeld, invariant 4) and its
// registry view balance at every instant of a timer's wait — the job and
// the ticker-shaped senders are the only traffic — and across the two ways
// a crash can meet one: the timer fires while the machine is down (dropped,
// counted), or after Restart wiped its process (dead letter).
func TestPoolLedgerWithTimersAcrossCrashRestart(t *testing.T) {
	c, err := core.New(core.Options{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	audit := func(when string) {
		t.Helper()
		for _, v := range append(chaos.CheckInvariants(c), chaos.CheckRegistry(c, c.ObsSnapshot())...) {
			t.Errorf("%s: %s", when, v)
		}
	}
	for m := 1; m <= 2; m++ {
		for _, service := range []sim.Time{2_000, 9_000} {
			if _, err := c.Spawn(m, kernel.SpawnSpec{Body: &workload.Job{Service: service}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.RunFor(1_000)
	audit("four timers outstanding")

	c.Kernel(1).Crash()
	c.RunFor(2_000) // m1's first timer fires into the crashed kernel; m2's first job exits
	audit("m1 down, one timer dropped")
	if got := c.Kernel(1).Stats().DroppedWhileCrashed; got != 1 {
		t.Fatalf("DroppedWhileCrashed = %d, want the one timer", got)
	}
	if err := c.Kernel(1).Restart(); err != nil {
		t.Fatal(err)
	}
	audit("m1 restarted with a timer still outstanding")

	c.Run() // m1's second timer finds its process wiped; m2's second job exits
	audit("quiescent")
	s1, s2 := c.Kernel(1).Stats(), c.Kernel(2).Stats()
	if s1.DeadLetters != 1 || s1.Exited != 0 || s2.Exited != 2 {
		t.Fatalf("m1 dead letters %d exited %d, m2 exited %d; want 1, 0, 2", s1.DeadLetters, s1.Exited, s2.Exited)
	}
}

// TestStatsEqualRegistryAfterStorm: a kernel keeps its counters in a hot
// part and a cold record (kernel/stats.go) and renders both into the
// registry. After a migrate-storm-style scene (stateful movers hopping
// three machines on under timer-driven senders, so migration, move-data,
// forwarding and link updates all count) the registry passes
// CheckRegistry, and every Stats field summed over the machines equals the
// same row summed over the snapshot, field by field.
func TestStatsEqualRegistryAfterStorm(t *testing.T) {
	const machines, movers, hops = 8, 8, 3
	c, err := core.New(core.Options{Machines: machines, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]addr.ProcessID, movers)
	at := make([]int, movers)
	for i := range pids {
		at[i] = i%machines + 1
		if pids[i], err = c.Spawn(at[i], kernel.SpawnSpec{Body: &workload.Counter{}}); err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= 2; j++ {
			sender := &workload.Chatter{N: 200, Interval: 250}
			l := link.Link{Addr: addr.At(pids[i], addr.MachineID(at[i]))}
			if _, err := c.Spawn((at[i]+j*2)%machines+1, kernel.SpawnSpec{Body: sender, Links: []link.Link{l}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for hop := 0; hop < hops; hop++ {
		for i, pid := range pids {
			c.RunFor(300)
			at[i] = (at[i]-1+3)%machines + 1
			if err := c.Migrate(pid, at[i]); err != nil {
				t.Fatal(err)
			}
		}
		c.RunFor(20_000) // every mover lands before its next hop is asked
	}
	c.Run()

	snap := c.ObsSnapshot()
	for _, v := range chaos.CheckRegistry(c, snap) {
		t.Errorf("registry audit: %s", v)
	}
	var sum kernel.Stats
	rows := map[string]uint64{}
	for m := 1; m <= machines; m++ {
		st := c.Kernel(m).Stats()
		p := fmt.Sprintf("kernel.m%d.", m)
		for _, want := range obs.AppendStruct(nil, p, &st) {
			rows[strings.TrimPrefix(want.Name, p)] += snap.Value(want.Name)
		}
		rows["admin_total"] += snap.Value(p + "admin_total")
		sv, tv := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(st)
		for f := 0; f < sv.NumField(); f++ {
			if sv.Field(f).CanUint() {
				sv.Field(f).SetUint(sv.Field(f).Uint() + tv.Field(f).Uint())
			}
		}
		for op := range sum.AdminSent {
			sum.AdminSent[op] += st.AdminSent[op]
		}
	}
	for _, want := range obs.AppendStruct(nil, "", &sum) {
		if got := rows[want.Name]; got != want.Value {
			t.Errorf("%s: Stats sums to %d over the machines, the registry to %d", want.Name, want.Value, got)
		}
	}
	if got := rows["admin_total"]; got != sum.AdminTotal() {
		t.Errorf("admin_total: Stats sums to %d, the registry to %d", sum.AdminTotal(), got)
	}
	if sum.MigrationsOut != movers*hops || sum.Forwarded == 0 || sum.LinkUpdatesApplied == 0 || sum.DataPacketsSent == 0 {
		t.Errorf("the storm did not exercise the cold counters: %d migrations (want %d), %d forwards, %d link updates applied, %d data packets",
			sum.MigrationsOut, movers*hops, sum.Forwarded, sum.LinkUpdatesApplied, sum.DataPacketsSent)
	}
}
