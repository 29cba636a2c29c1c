// Quickstart: move a running computation to another processor.
//
// This is the smallest end-to-end demonstration of the paper's claim: "A
// process can be moved during its execution, and continue on another
// processor, with continuous access to all its resources."
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"demosmp"
)

func main() {
	// A three-machine cluster with the switchboard and process manager.
	c, err := demosmp.New(demosmp.Options{
		Machines:    3,
		Switchboard: true,
		PM:          true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A CPU-bound program born on machine 1.
	const n = 300000
	pid, err := c.SpawnProgram(1, demosmp.CPUBound(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spawned %v on m1\n", pid)

	// Let it compute for a while...
	c.RunFor(100000)
	at, _ := c.Locate(pid)
	fmt.Printf("t=%v: mid-computation on %v; migrating to m3\n", c.Now(), at)

	// ...then move it, mid-loop, to machine 3.
	if err := c.Migrate(pid, 3); err != nil {
		log.Fatal(err)
	}
	c.Run()

	exit, machine, ok := c.ExitOf(pid)
	if !ok {
		log.Fatal("process lost in migration!")
	}
	fmt.Printf("t=%v: finished on %v with result %d (expected %d)\n",
		c.Now(), machine, exit.Code, demosmp.CPUBoundResult(n))

	// The migration's cost breakdown, as the paper reports it (§6).
	for _, r := range c.Reports() {
		fmt.Printf("\nmigration report for %v (m%d -> m%d):\n", r.PID, uint16(r.From), uint16(r.To))
		fmt.Printf("  program moved:     %6d bytes (in %d data packets)\n", r.ProgramBytes, r.DataPackets)
		fmt.Printf("  resident state:    %6d bytes\n", r.ResidentBytes)
		fmt.Printf("  swappable state:   %6d bytes\n", r.SwappableBytes)
		fmt.Printf("  admin messages:    %6d (paper: 9)\n", r.AdminMsgs)
		fmt.Printf("  latency:           %v\n", r.FreezeMicros())
	}
}
