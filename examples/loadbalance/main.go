// Loadbalance: dynamic load balancing via process migration — the paper's
// primary motivation (§1: "If it is possible to assess the system load
// dynamically and to redistribute processes during their lifetimes, a
// system has the opportunity to achieve better overall throughput").
//
// Six CPU-bound jobs are all born on machine 1 of a three-machine cluster.
// The run is repeated twice: with static placement, and with the process
// manager running a threshold policy over the kernels' load reports.
//
// Run: go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"demosmp"
)

const jobs, iters = 6, 400000

func run(balanced bool) demosmp.Time {
	opts := demosmp.Options{
		Machines:    3,
		Switchboard: true,
		PM:          true,
	}
	if balanced {
		// High water 60%, low water 30%, 200ms per-process cooldown —
		// the "hysteresis mechanism to keep from incurring the cost of
		// migration more often than justified by the gains" (§3.1).
		opts.Policy = demosmp.NewThresholdPolicy(60, 30, 200000)
		opts.Kernel.LoadReportEvery = 100000
	}
	c, err := demosmp.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	var pids []demosmp.ProcessID
	for i := 0; i < jobs; i++ {
		pid, err := c.SpawnProgram(1, demosmp.CPUBound(iters))
		if err != nil {
			log.Fatal(err)
		}
		pids = append(pids, pid)
	}
	c.Run()

	perMachine := map[demosmp.MachineID]int{}
	for _, pid := range pids {
		e, m, ok := c.ExitOf(pid)
		if !ok || e.Code != demosmp.CPUBoundResult(iters) {
			log.Fatalf("job %v corrupted (ok=%v code=%d)", pid, ok, e.Code)
		}
		perMachine[m]++
	}
	mode := "static placement"
	if balanced {
		mode = "threshold policy"
	}
	fmt.Printf("%-18s makespan %v, finished per machine: m1=%d m2=%d m3=%d, migrations=%d\n",
		mode, c.Now(), perMachine[1], perMachine[2], perMachine[3],
		c.Stats().TotalMigrations())
	return c.Now()
}

func main() {
	fmt.Printf("%d CPU-bound jobs, all born on m1 of 3 machines\n\n", jobs)
	static := run(false)
	balanced := run(true)
	fmt.Printf("\nspeedup from migration: %.2fx\n", float64(static)/float64(balanced))
}
