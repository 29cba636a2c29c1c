package chaos_test

// Observability-plane audits over the chaos harness: same-seed runs must
// export byte-identical snapshots and timelines, and the single-ownership
// rule for stats (kernel owns protocol counts, netw owns wire counts) must
// reconcile exactly on a lossless run.

import (
	"bytes"
	"strings"
	"testing"

	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
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
	reg.SampleStruct("kernel.m1.", &stale)

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
