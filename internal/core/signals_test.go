package core_test

import (
	"fmt"
	"strings"
	"testing"

	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/memsched"
	"demosmp/internal/workload"
)

// TestShellSuspendResume drives §2.2's example through the whole stack:
// "the process manager can send a message to the process's kernel asking
// that the process be stopped" — and control follows the process.
func TestShellSuspendResume(t *testing.T) {
	c := full(t, 2, nil)
	pid, _ := c.SpawnProgram(2, workload.CPUBound(200000))
	c.RunFor(5000)

	if err := c.ShellCommand(fmt.Sprintf("suspend %d.%d", pid.Creator, pid.Local)); err != nil {
		t.Fatal(err)
	}
	c.Run()
	info, ok := c.Kernel(2).Process(pid)
	if !ok || info.State != kernel.StateSuspended {
		t.Fatalf("state after shell suspend: %+v", info)
	}

	// A suspended process can still be migrated — and stays suspended.
	c.Migrate(pid, 1)
	c.Run()
	info, ok = c.Kernel(1).Process(pid)
	if !ok || info.State != kernel.StateSuspended {
		t.Fatalf("state after migrating suspended process: %+v ok=%v", info, ok)
	}

	if err := c.ShellCommand(fmt.Sprintf("resume %d.%d", pid.Creator, pid.Local)); err != nil {
		t.Fatal(err)
	}
	c.Run()
	e, m, ok := c.ExitOf(pid)
	if !ok || m != 1 || e.Code != workload.CPUBoundResult(200000) {
		t.Fatalf("resumed process: code=%d on m%v ok=%v", e.Code, m, ok)
	}
}

func TestShellKill(t *testing.T) {
	c := full(t, 2, nil)
	pid, _ := c.SpawnProgram(2, workload.CPUBound(1<<30)) // effectively forever
	c.RunFor(5000)
	if err := c.ShellCommand(fmt.Sprintf("kill %d.%d", pid.Creator, pid.Local)); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if _, ok := c.Kernel(2).Process(pid); ok {
		t.Fatal("killed process still present")
	}
	if _, _, ok := c.ExitOf(pid); !ok {
		t.Fatal("no exit record for killed process")
	}
	out := strings.Join(c.Console(c.ShellPID), "\n")
	if !strings.Contains(out, "signalled:") {
		t.Fatalf("shell output: %s", out)
	}
}

// TestRunAnyUsesMemSched: "run any <prog>" lets the memory scheduler place
// the process on the least-loaded machine.
func TestRunAnyUsesMemSched(t *testing.T) {
	c := full(t, 3, func(o *core.Options) { o.Kernel.LoadReportEvery = 50000 })
	// Load machines 1 and 2 with big images so m3 is the best fit.
	c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}, ImageSize: 256 << 10})
	c.Spawn(2, kernel.SpawnSpec{Body: &workload.Sink{}, ImageSize: 256 << 10})
	// Let load reports reach PM and memsched.
	c.RunFor(200000)

	if err := c.ShellCommand("run any cpu"); err != nil {
		t.Fatal(err)
	}
	c.Run()
	out := strings.Join(c.Console(c.ShellPID), "\n")
	if !strings.Contains(out, "spawned:") {
		t.Fatalf("spawn failed:\n%s", out)
	}
	if !strings.Contains(out, "@ m3") {
		t.Fatalf("memsched did not place on the emptiest machine:\n%s", out)
	}
	body, ok := c.Kernel(1).BodyOf(c.MemSchedPID)
	if !ok {
		t.Fatal("memsched gone")
	}
	if body.(*memsched.Scheduler).Queries == 0 {
		t.Fatal("memsched was never consulted")
	}
}
