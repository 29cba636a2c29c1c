// Faulttolerance: evacuate a dying processor before it fails — §1: "working
// processes may be migrated from a dying processor (like rats leaving a
// sinking ship) before it completely fails."
//
// Machine 2 hosts four long computations. An operator notices it degrading
// and attaches a Drain policy; the process manager migrates everything off.
// Then machine 2 crashes for real — and all four jobs still finish with
// correct results elsewhere.
//
// Run: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"demosmp"
)

func main() {
	const iters = 500000
	c, err := demosmp.New(demosmp.Options{
		Machines:    3,
		Switchboard: true,
		PM:          true,
		Policy:      demosmp.NewDrainPolicy(2),
		Kernel:      demosmp.KernelConfig{LoadReportEvery: 50000},
	})
	if err != nil {
		log.Fatal(err)
	}

	var pids []demosmp.ProcessID
	for i := 0; i < 4; i++ {
		pid, err := c.SpawnProgram(2, demosmp.CPUBound(iters))
		if err != nil {
			log.Fatal(err)
		}
		pids = append(pids, pid)
	}
	fmt.Println("4 jobs running on m2; m2 is dying — drain policy active")

	// Give the drain a little time, then fail the machine completely.
	c.RunFor(400000)
	evacuated := 0
	for _, pid := range pids {
		if m, ok := c.Locate(pid); ok && m != 2 {
			evacuated++
		}
	}
	fmt.Printf("t=%v: %d/4 jobs evacuated; m2 now crashes hard\n", c.Now(), evacuated)
	c.Kernel(2).Crash()
	c.Run()

	survivors := 0
	for _, pid := range pids {
		e, m, ok := c.ExitOf(pid)
		switch {
		case ok && e.Code == demosmp.CPUBoundResult(iters):
			fmt.Printf("  %v survived: finished on %v with the right answer\n", pid, m)
			survivors++
		case ok:
			fmt.Printf("  %v finished on %v but CORRUPTED (%d)\n", pid, m, e.Code)
		default:
			fmt.Printf("  %v LOST with the crashed machine\n", pid)
		}
	}
	fmt.Printf("\n%d/4 computations survived the processor failure.\n", survivors)
	fmt.Println("(Jobs still aboard m2 at crash time are lost — migration is the")
	fmt.Println("rescue mechanism, not a replacement for stable storage.)")
}
