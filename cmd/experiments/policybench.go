package main

// Policy-plane benchmark tier: one op is a full collector round — 256
// machine load reports observed, the round-closing sweep, and a composite
// (queue-depth + memory-pressure + affinity) decide over the merged view.
// This is the per-sweep cost procmgr pays on every report round, so it must
// stay small relative to the report cadence: at 10ms cadence a 1000-machine
// cluster has a 10ms budget per round and this measures the 256-machine
// slice of it.

import (
	"fmt"
	"math"
	"time"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/policy"
	"demosmp/internal/sim"
)

// policyBenchMachines is the cluster size of the measured round.
const policyBenchMachines = 256

// policyBenchReports builds a deliberately imbalanced cluster snapshot:
// queue depths 0..6, CPU 30..99%, memory 1..17 MB, and chatty procs whose
// top peers clear the §6 payback gate — every sub-policy has real work.
func policyBenchReports() []msg.LoadReport {
	reports := make([]msg.LoadReport, policyBenchMachines)
	for i := range reports {
		m := addr.MachineID(i + 1)
		rep := msg.LoadReport{
			Machine: m, Ready: uint16(i % 7), ProcCount: 8,
			CPUPercent: uint8(30 + (i*13)%70),
			MemUsedKB:  uint32(1024 + i*64),
		}
		for p := 0; p < 8; p++ {
			rep.Procs = append(rep.Procs, msg.ProcLoad{
				PID:         addr.ProcessID{Creator: m, Local: addr.LocalUID(p + 1)},
				CPUMicros:   uint32(500 + (i+p)*37%9000),
				MemKB:       uint32(64 + p*16),
				MsgsOut:     uint32((i + p) % 40),
				TopPeer:     addr.MachineID((i+p)%policyBenchMachines + 1),
				TopPeerMsgs: uint32((i * (p + 1)) % 60),
			})
		}
		reports[i] = rep
	}
	return reports
}

func policyBenchPolicy() policy.Policy {
	return policy.NewComposite(8,
		policy.Rule{Policy: policy.NewQueueDepth(3, 2, 1), Weight: 3},
		policy.Rule{Policy: policy.NewMemoryPressure(8192, 4096, 1), Weight: 2},
		policy.Rule{Policy: policy.NewAffinityAware(10, 1, nil), Weight: 1},
	)
}

// policyRun is the policy tier's entry in the trajectory file's runs array,
// under the keys that array's earlier entries carry it with.
type policyRun struct {
	Timestamp       string  `json:"timestamp,omitempty"`
	SweepNsOp       float64 `json:"policy_sweep_ns_op"`
	DecisionsPerSec float64 `json:"policy_decisions_per_sec"`
}

// measurePolicy measures the policy tier.
func measurePolicy() policyRun {
	machines := make([]addr.MachineID, policyBenchMachines)
	for i := range machines {
		machines[i] = addr.MachineID(i + 1)
	}
	reports := policyBenchReports()
	coll := policy.NewCollector(machines, 0)
	pol := policyBenchPolicy()
	now := sim.Time(0)
	decisions := 0
	round := func() {
		now += 10_000
		for i := range reports {
			if coll.Observe(now, reports[i]) {
				decisions += len(pol.Decide(now, coll.View(now)))
			}
		}
	}
	round() // warm the collector and the policies' cooldown maps
	// Best of three: wall clock has a hard floor and noise is one-sided.
	const timedRounds = 2_000
	r := policyRun{SweepNsOp: math.Inf(1)}
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < timedRounds; i++ {
			round()
		}
		r.SweepNsOp = math.Min(r.SweepNsOp, float64(time.Since(start).Nanoseconds())/timedRounds)
	}
	// Decisions per round, counted over a fresh window so the warm-up and
	// timing reps don't skew the rate.
	decisions = 0
	const countRounds = 200
	for i := 0; i < countRounds; i++ {
		round()
	}
	if r.SweepNsOp > 0 {
		r.DecisionsPerSec = float64(decisions) / countRounds * 1e9 / r.SweepNsOp
	}
	return r
}

// policyDecisionsFloor is the absolute -check-regression floor: the policy
// plane must sustain at least this many migration decisions per second on
// the 256-machine composite round. Measured ~30k/s on a single-CPU
// container (~190µs per sweep+decide round); the floor sits 6x below that,
// so it only catches order-of-magnitude collapses (an accidental O(n²) in
// the collector or a sort in the wrong place), not slow CI hosts.
const policyDecisionsFloor = 5_000

func printPolicy(r policyRun) {
	fmt.Printf("\npolicy tier: %.0f ns per 256-machine sweep+decide round, %.0f decisions/sec\n",
		r.SweepNsOp, r.DecisionsPerSec)
}
