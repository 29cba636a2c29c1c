package core_test

import (
	"testing"

	"demosmp/internal/core"
	"demosmp/internal/proc"
	"demosmp/internal/workload"
)

// TestOpenLoopJobsShareTwoBodies runs the open-loop driver and looks at
// every live job between slices of the run: every timer-driven job of one
// service time, on any machine, runs the same body, so the cluster holds
// exactly two (the short and the long service time), and every job still
// exits. In Spin mode no two live spinners share a body, since a Spinner
// counts its own work down. The last case steps the shared bodies from two
// shard goroutines at once (run it under -race).
func TestOpenLoopJobsShareTwoBodies(t *testing.T) {
	for _, tt := range []struct {
		machines int
		spin     bool
		shards   int
	}{{4, false, 1}, {4, true, 1}, {32, false, 2}} {
		machines, spin := tt.machines, tt.spin
		c, err := core.New(core.Options{Machines: machines, Seed: 1, Shards: tt.shards, ShardParallel: tt.shards > 1})
		if err != nil {
			t.Fatal(err)
		}
		const perMachine = 60
		d := c.StartOpenLoop(workload.OpenLoop{Seed: 3, MeanGap: 150, PerMachine: perMachine, LongFraction: 0.3, Spin: spin})
		bodies := map[proc.Body]int{} // body -> live jobs seen running it at once, at most
		for d.Spawned() < uint64(machines*perMachine) {
			c.RunFor(300)
			live := map[proc.Body]int{}
			for m := 1; m <= machines; m++ {
				k := c.Kernel(m)
				for _, info := range k.Processes() {
					if b, ok := k.BodyOf(info.PID); ok {
						live[b]++
					}
				}
			}
			for b, n := range live {
				bodies[b] = max(bodies[b], n)
			}
		}
		c.Run()
		if spin {
			for b, n := range bodies {
				if n > 1 {
					t.Errorf("spin: %d live spinners share the body %p", n, b)
				}
			}
		} else {
			services := map[uint64]bool{}
			shared := false
			for b, n := range bodies {
				j, ok := b.(*workload.Job)
				if !ok {
					t.Fatalf("a live open-loop process runs a %T", b)
				}
				services[uint64(j.Service)] = true
				shared = shared || n > 1
			}
			if len(bodies) != 2 || !services[200] || !services[5000] || !shared {
				t.Errorf("the jobs ran %d bodies with service times %v (shared at once: %v); want the two defaults, 200 and 5000, shared", len(bodies), services, shared)
			}
		}
		var exited uint64
		for m := 1; m <= machines; m++ {
			exited += c.Kernel(m).Stats().Exited
		}
		if d.Spawned() != uint64(machines*perMachine) || d.Failed() != 0 || exited != d.Spawned() {
			t.Errorf("%+v: spawned %d, failed %d, exited %d; want %d, 0, all", tt, d.Spawned(), d.Failed(), exited, machines*perMachine)
		}
		if tt.shards > 1 && c.ParallelRounds() == 0 {
			t.Errorf("%+v: no round ran on goroutines", tt)
		}
	}
}
