package experiment

import (
	"runtime"
	"testing"

	"demosmp/internal/core"
	"demosmp/internal/workload"
)

// TestArrivalAllocatesOnlyItsJob: once the cluster's tables have grown, an
// arrival allocates its Spinner and, amortized, its log entry, and nothing
// for its event: fire is bound once per machine, not a closure per arrival.
func TestArrivalAllocatesOnlyItsJob(t *testing.T) {
	c, err := core.New(core.Options{Machines: 2, Seed: 3, PM: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.OpenLoop{Seed: 5, MeanGap: 1000, PerMachine: 10000, ShortService: 200, LongService: 400, LongFraction: 0.1}
	jobs := make([][]jobRec, c.Machines()+1)
	startArrivals(c, &cfg, jobs)
	logged := func() int { return len(jobs[1]) + len(jobs[2]) }
	c.RunFor(2_000_000) // warm-up: the run queues, pools, tables and trace ring grow
	before := logged()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c.RunFor(4_000_000)
	runtime.ReadMemStats(&ms1)
	arrived := logged() - before
	if arrived < 1000 {
		t.Fatalf("%d arrivals in the measured window, want at least 1000", arrived)
	}
	if per := float64(ms1.Mallocs-ms0.Mallocs) / float64(arrived); per > 1.25 {
		t.Errorf("an arrival allocates %.2f objects, want its Spinner and an amortized log entry (at most 1.25)", per)
	} else {
		t.Logf("%.3f allocations an arrival over %d arrivals", per, arrived)
	}
}
