// Golden-trace determinism test: the exact firing order of the event
// engines is part of this repo's contract — the protocol tests assert exact
// message counts, and EXPERIMENTS.md claims bit-identical reruns. Any engine,
// network or kernel rewrite must reproduce the golden file under testdata/
// byte for byte.
//
// The file was regenerated once, in PR 13, when canonical delivery on a
// sim.Group became the only runtime (it had been captured on the original
// container/heap engine and pinned the since-deleted inline delivery path).
// On this scenario the two runtimes fired the same 245 events in the same
// order; what moved is the delivery event's name (netw:deliver became
// netw:pump) and the clock rule: RunFor now leaves the clock at its target,
// so the two Migrate calls land at t=5000 and t=11000 instead of at the
// last event before them. DESIGN.md §11 has the itemised comparison.
//
// It was regenerated a second time when frames due at one instant began to
// share one netw:pump gate: the diff only removed lines, 55 netw:pump events
// that had found their instant already drained (245 -> 190 events), and every
// remaining line kept its time and its place.
//
// It was regenerated a third time when step 8 began to restart the process
// before serving what was held on its queue: the second Migrate, held on the
// server's incoming record at m3, had been refused there as a request for a
// pid still incoming, so the scene migrated once. Now it migrates twice
// (190 -> 211 events, 3 -> 6 kernel:data-packet), which goldenTrace asserts.
//
// Regenerate only when the *workload* changes, never to paper over an
// ordering change: go test -run TestGoldenTrace -update-golden
package demosmp_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_trace.txt")

const goldenPath = "testdata/golden_trace.txt"

// goldenTrace runs a seeded 4-machine migration workload — an echo server
// with clients on three machines, migrated twice mid-conversation — and
// returns one line per fired engine event: "<time-µs> <event-name>".
func goldenTrace(t *testing.T) []string {
	t.Helper()
	c, err := demosmp.New(demosmp.Options{Machines: 4, Seed: 1983})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	c.Engine().OnFire = func(name string, at demosmp.Time) {
		lines = append(lines, fmt.Sprintf("%d %s", uint64(at), name))
	}
	server, err := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(60)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := c.Spawn(2+i, kernel.SpawnSpec{
			Program: workload.RequestClient(20),
			Links:   []link.Link{{Addr: addr.At(server, 1)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(5000)
	if err := c.Migrate(server, 3); err != nil {
		t.Fatal(err)
	}
	c.RunFor(6000)
	if err := c.Migrate(server, 4); err != nil {
		t.Fatal(err)
	}
	c.Run()
	rep := c.Reports()
	if len(rep) != 2 || !rep[0].OK || !rep[1].OK || rep[0].To != 3 || rep[1].From != 3 || rep[1].To != 4 {
		t.Fatalf("migration reports %+v, want two OK ones, m1 -> m3 -> m4", rep)
	}
	return lines
}

// TestGoldenTrace asserts the exact event firing sequence (names and
// timestamps) against the committed trace.
func TestGoldenTrace(t *testing.T) {
	got := goldenTrace(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("event count changed: got %d events, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges at event %d:\n  got:  %q\n  want: %q", i, got[i], want[i])
		}
	}
}
