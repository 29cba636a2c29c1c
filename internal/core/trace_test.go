package core_test

import (
	"reflect"
	"testing"

	"demosmp/internal/core"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

// openLoopRun runs a 4-machine open loop on the given shard count and
// returns the merged trace and how many records the rings overwrote.
func openLoopRun(t *testing.T, shards, traceCap int) ([]trace.Record, uint64) {
	t.Helper()
	c, err := core.New(core.Options{Machines: 4, Seed: 5, Shards: shards, TraceCap: traceCap})
	if err != nil {
		t.Fatal(err)
	}
	c.StartOpenLoop(workload.OpenLoop{Seed: 9, MeanGap: 300, PerMachine: 40, LongFraction: 0.2})
	c.Run()
	return c.TraceRecords(), c.TraceOverwritten()
}

// TestTraceShardInvarianceNeedsUnwrappedRings scopes TraceRecords' claim.
// Each shard keeps its own TraceCap records, so once the rings wrap the
// merged trace holds one ring's worth per shard — a different sequence on
// every shard count — and TraceOverwritten says so. While no ring has
// wrapped, the merged trace is the same on every shard count.
func TestTraceShardInvarianceNeedsUnwrappedRings(t *testing.T) {
	var wrapped [][]trace.Record
	for _, shards := range []int{1, 2, 4} {
		recs, over := openLoopRun(t, shards, 64)
		if len(recs) != 64*shards || over == 0 {
			t.Fatalf("%d shards, TraceCap 64: %d records, %d overwritten; want %d and some", shards, len(recs), over, 64*shards)
		}
		wrapped = append(wrapped, recs)
	}
	if reflect.DeepEqual(wrapped[0], wrapped[1]) || reflect.DeepEqual(wrapped[1], wrapped[2]) {
		t.Fatal("wrapped rings merged to the same trace on different shard counts")
	}

	want, over := openLoopRun(t, 1, 0)
	if over != 0 || len(want) <= 64*4 {
		t.Fatalf("default ring: %d records, %d overwritten; want more than %d and none", len(want), over, 64*4)
	}
	for _, shards := range []int{2, 4} {
		got, over := openLoopRun(t, shards, 0)
		if over != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: %d records (%d overwritten), 1 shard %d: unwrapped traces differ", shards, len(got), over, len(want))
		}
	}
}
