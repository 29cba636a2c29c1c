// Golden obs snapshot: the text rendering of every registered metric — names,
// kinds and values — after one seeded migration scenario is part of this
// repo's contract. artifacts/obs_snapshot.json, chaos.CheckRegistry and the
// bench's per-layer rows all key on metric names, so a change to how a
// counter reaches the registry must reproduce testdata/obs_snapshot_golden.txt
// byte for byte, on one shard and on two. The two-shard comparison leaves out
// the nine per-kernel pool_news/pool_free/pool_held rows: an envelope that
// crosses a shard goes home only at the next round barrier, so how many
// envelopes each kernel's pool constructs depends on the sharding (the same
// exception TestShardCountInvariance makes).
//
// Regenerate only when a metric is deliberately added, renamed or removed:
// go test -run TestObsSnapshotGolden -update-obs-golden
package demosmp_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/workload"
)

var updateObsGolden = flag.Bool("update-obs-golden", false, "rewrite testdata/obs_snapshot_golden.txt")

const obsGoldenPath = "testdata/obs_snapshot_golden.txt"

// obsGoldenText runs a seeded 3-machine cluster with switchboard and process
// manager: a CPUBound program is migrated 1 -> 2 while running, a stale send
// from machine 3 goes through the forwarding address it left behind, and the
// cluster runs to idle. It returns ObsSnapshot().WriteText.
func obsGoldenText(t *testing.T, shards int) []byte {
	t.Helper()
	c, err := demosmp.New(demosmp.Options{
		Machines: 3, Seed: 1983, Switchboard: true, PM: true, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := c.SpawnProgram(1, demosmp.CPUBound(100000))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5000)
	if err := c.Migrate(pid, 2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20000)
	if at, ok := c.Locate(pid); !ok || at != 2 {
		t.Fatalf("process at machine %v (found %v), want a live process on 2", at, ok)
	}
	c.Kernel(3).GiveMessageTo(addr.At(pid, 1), addr.At(sink, 3), []byte("stale"))
	c.Run()
	snap := c.ObsSnapshot()
	if snap.Value("kernel.m1.migrations_out") != 1 || snap.Value("kernel.m1.forwarded") != 1 {
		t.Fatalf("scenario did not migrate and forward: out=%d forwarded=%d",
			snap.Value("kernel.m1.migrations_out"), snap.Value("kernel.m1.forwarded"))
	}
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsSnapshotGolden compares the scenario's snapshot text with the
// committed file at one shard and at two.
func TestObsSnapshotGolden(t *testing.T) {
	if *updateObsGolden {
		got := obsGoldenText(t, 1)
		if err := os.WriteFile(obsGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", obsGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(obsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-obs-golden): %v", err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gl := bytes.Split(obsGoldenText(t, shards), []byte("\n"))
			wl := bytes.Split(want, []byte("\n"))
			if shards > 1 {
				gl, wl = dropPoolRows(gl), dropPoolRows(wl)
			}
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("snapshot diverges at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
				}
			}
			if len(gl) != len(wl) {
				t.Fatalf("snapshot has %d lines, golden has %d", len(gl), len(wl))
			}
		})
	}
}

func dropPoolRows(lines [][]byte) [][]byte {
	var out [][]byte
	for _, l := range lines {
		if !bytes.Contains(l, []byte(".pool_")) {
			out = append(out, l)
		}
	}
	return out
}
