package core_test

import (
	"strings"
	"testing"

	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/policy"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// runPolicyShardWorkload drives a hot-skewed CPU-bound open-loop workload
// under an automatic migration policy on the given shard count and returns
// the PM's decision trace plus the sweep/decision counters.
func runPolicyShardWorkload(t *testing.T, shards int, parallel bool) (trace string, sweeps, decisions uint64) {
	t.Helper()
	c, err := core.New(core.Options{
		Machines:      8,
		Seed:          1234,
		Shards:        shards,
		ShardParallel: parallel,
		PM:            true,
		Kernel:        kernel.Config{LoadReportEvery: 20000},
		Policy:        policy.NewQueueDepth(3, 2, 50000),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.StartOpenLoop(workload.OpenLoop{
		Seed: 5, MeanGap: 300, PerMachine: 25,
		ShortService: 400, LongService: 8000, LongFraction: 0.3,
		HotEvery: 4, HotFactor: 4, // machines 4 and 8 run hot
		Spin: true,
	})
	c.RunFor(sim.Time(2_000_000))
	pm := c.PM()
	// The obs plane must carry the PM's counters (registered once, on the
	// PM machine's registry) so merged snapshots expose the policy plane.
	var sampled, found uint64
	for _, m := range c.ObsSnapshot().Metrics {
		if m.Name == "policy.decisions" {
			sampled, found = m.Value, found+1
		}
	}
	if found != 1 || sampled != pm.PolicyDecisions {
		t.Fatalf("obs policy.decisions: found %d rows, value %d, want 1 row == %d",
			found, sampled, pm.PolicyDecisions)
	}
	return strings.Join(pm.DecisionTrace, "\n"), pm.PolicySweeps, pm.PolicyDecisions
}

// TestPolicyShardInvariance pins the policy plane's determinism rule: the
// same seed and workload must yield bit-identical decision traces — same
// orders, same simulated times, same reasons — across 1, 2, and 4 shards,
// sequential and parallel. The collector's sweep cadence depends only on
// report arrival order at the PM, which the sharded runtime keeps
// canonical, so nothing in the decision path may vary with shard count.
func TestPolicyShardInvariance(t *testing.T) {
	baseTrace, baseSweeps, baseDecisions := runPolicyShardWorkload(t, 1, false)
	if baseDecisions == 0 {
		t.Fatal("policy made no decisions; the invariance check is vacuous")
	}
	if baseSweeps == 0 {
		t.Fatal("collector never swept")
	}
	for _, cfg := range []struct {
		shards   int
		parallel bool
	}{{2, false}, {4, false}, {2, true}, {4, true}} {
		gotTrace, gotSweeps, gotDecisions := runPolicyShardWorkload(t, cfg.shards, cfg.parallel)
		if gotTrace != baseTrace {
			t.Errorf("shards=%d parallel=%v: decision trace diverged\n--- 1 shard:\n%s\n--- got:\n%s",
				cfg.shards, cfg.parallel, baseTrace, gotTrace)
		}
		if gotSweeps != baseSweeps || gotDecisions != baseDecisions {
			t.Errorf("shards=%d parallel=%v: sweeps=%d decisions=%d, want %d/%d",
				cfg.shards, cfg.parallel, gotSweeps, gotDecisions, baseSweeps, baseDecisions)
		}
	}
}
