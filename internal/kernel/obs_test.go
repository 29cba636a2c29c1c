package kernel_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// observedTC is newTC with every kernel's rows in one registry.
func observedTC(t *testing.T, machines int) (*tc, *obs.Registry) {
	c := newTC(t, machines, nil)
	reg := obs.NewRegistry()
	for m := 1; m <= machines; m++ {
		c.k(m).SetObs(reg, nil)
	}
	return c, reg
}

// TestKernelRowsMatchStats pins what a kernel renders at snapshot time,
// after a migration and a forward: its Stats counters exactly as
// obs.AppendStruct derives them, one admin_sent.<op> row per §3.1
// administrative op and the abort, and the five computed rows (admin_total,
// the three envelope pool levels, the delivery-latency histogram, which
// observes every enqueue), value for value and nothing else.
func TestKernelRowsMatchStats(t *testing.T) {
	c, reg := observedTC(t, 3)
	pid := migrateAway(c)
	c.k(3).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(3), []byte("hit")) // forwarded by m1
	c.run()
	if c.k(1).Stats().Forwarded == 0 {
		t.Fatal("the scene forwarded nothing")
	}
	admin := []msg.Op{
		msg.OpMigrateRequest, msg.OpMigrateAsk, msg.OpMigrateAccept,
		msg.OpMigrateRefuse, msg.OpMoveDataReq, msg.OpMigrateEstablished,
		msg.OpMigrateCleanup, msg.OpMigrateDone, msg.OpMigrateAbort,
	}
	s := reg.Snapshot(c.eng.Now())
	for m := 1; m <= 3; m++ {
		k := c.k(m)
		st := k.Stats()
		p := fmt.Sprintf("kernel.m%d.", m)
		want := obs.AppendStruct(nil, p, &st)
		for _, op := range admin {
			want = append(want, obs.Metric{Name: p + "admin_sent." + op.String(), Kind: "counter", Value: st.AdminSent[op]})
		}
		news, free, held := k.PoolStats()
		want = append(want,
			obs.Metric{Name: p + "admin_total", Kind: "counter", Value: st.AdminTotal()},
			obs.Metric{Name: p + "pool_news", Kind: "gauge", Value: uint64(news)},
			obs.Metric{Name: p + "pool_free", Kind: "gauge", Value: uint64(free)},
			obs.Metric{Name: p + "pool_held", Kind: "gauge", Value: uint64(held)})
		sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })

		var got []obs.Metric
		var lat obs.Metric
		for _, r := range s.Metrics {
			switch {
			case r.Name == p+"deliver_latency_us":
				lat = r
			case strings.HasPrefix(r.Name, p):
				got = append(got, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("m%d rows:\n got %v\nwant %v", m, got, want)
		}
		if lat.Kind != "histogram" || lat.Count != st.MsgsEnqueued || lat.Value != lat.Count {
			t.Errorf("m%d deliver_latency_us = %+v, want a histogram of the %d enqueues", m, lat, st.MsgsEnqueued)
		}
	}
}

// TestUnobservedLatencyRendersEmpty: a kernel that has never enqueued has
// no histogram yet, and renders its row exactly as an empty one.
func TestUnobservedLatencyRendersEmpty(t *testing.T) {
	c, reg := observedTC(t, 2)
	if c.k(2).Stats().MsgsEnqueued != 0 {
		t.Fatal("m2 enqueued before the scene began")
	}
	m, ok := reg.Snapshot(0).Get("kernel.m2.deliver_latency_us")
	if !ok {
		t.Fatal("no deliver_latency_us row")
	}
	var text bytes.Buffer
	if err := (obs.Snapshot{Metrics: []obs.Metric{m}}).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	const want = "# obs snapshot at t=0us metrics=1\nkernel.m2.deliver_latency_us histogram count=0 sum=0\n"
	if text.String() != want {
		t.Errorf("renders %q, want %q", text.String(), want)
	}
}

// TestNilMapsSurviveCrashSearchRevive walks a kernel whose maps are all
// still nil through a crash and restart, a migration away as the source, a
// second restart that loses the forwarding address (and the forwarder
// table made for it) and the broadcast search
// that finds the process anyway, and the revival of another machine's
// checkpoint: every map is made at its first write, and Restart leaves the
// volatile ones nil again.
func TestNilMapsSurviveCrashSearchRevive(t *testing.T) {
	c, _ := observedTC(t, 3)
	k := c.k(3)
	nilMaps := func(when string) {
		t.Helper()
		if live := k.LiveMaps(); len(live) != 0 {
			t.Fatalf("%s: m3 has made %v", when, live)
		}
	}
	nilMaps("at boot")
	k.Crash()
	if err := k.Restart(); err != nil {
		t.Fatal(err)
	}
	nilMaps("after a restart")

	pid, err := k.Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)
	c.migrate(1, pid, 3, 2)
	c.run()
	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Fatal("migration 3->2 did not complete")
	}
	if live := k.LiveMaps(); !reflect.DeepEqual(live, []string{"fwds"}) {
		t.Fatalf("after migrating away m3 has made %v, want [fwds], its forwarder table", live)
	}
	k.Crash() // the forwarding address for pid dies with m3
	if err := k.Restart(); err != nil {
		t.Fatal(err)
	}
	k.GiveMessageTo(addr.At(pid, 3), addr.KernelAddr(3), []byte("hit"))
	c.run()
	if s := k.Stats(); s.SearchesSent != 1 || s.DeadLetters != 0 {
		t.Fatalf("SearchesSent = %d, DeadLetters = %d, want 1 and 0", s.SearchesSent, s.DeadLetters)
	}
	if b, _ := c.k(2).BodyOf(pid); b == nil || b.(*counterBody).Count != 1 {
		t.Fatalf("the search delivered to %+v, want one message to the copy on m2", b)
	}
	if live := k.LiveMaps(); !reflect.DeepEqual(live, []string{"pendingLocate"}) {
		t.Errorf("after a search m3 has made %v, want [pendingLocate]", live)
	}

	other, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)
	cp, err := c.k(1).Checkpoint(other)
	if err != nil {
		t.Fatal(err)
	}
	c.k(1).Crash()
	if got, err := k.Revive(cp); err != nil || got != other {
		t.Fatalf("Revive = %v, %v", got, err)
	}
	if _, ok := k.Process(other); !ok {
		t.Fatal("the revived process is not on m3")
	}
	if live := k.LiveMaps(); !reflect.DeepEqual(live, []string{"procs", "kinds", "pendingLocate"}) {
		t.Errorf("after a foreign revival m3 has made %v, want [procs kinds pendingLocate]", live)
	}
}
