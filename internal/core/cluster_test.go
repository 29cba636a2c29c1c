package core_test

import (
	"fmt"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/memsched"
	"demosmp/internal/policy"
	"demosmp/internal/procmgr"
	"demosmp/internal/workload"
)

func full(t *testing.T, machines int, mut func(*core.Options)) *core.Cluster {
	t.Helper()
	opts := core.Options{
		Machines:    machines,
		Seed:        3,
		Switchboard: true,
		PM:          true,
		MemSched:    true,
		FS:          true,
		Shell:       true,
		Programs: map[string]core.ProgramFactory{
			"cpu": func(args []string) (kernel.SpawnSpec, error) {
				return kernel.SpawnSpec{Program: workload.CPUBound(500)}, nil
			},
		},
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBootFullSystem(t *testing.T) {
	c := full(t, 3, nil)
	c.Run()
	for _, pid := range []addr.ProcessID{
		c.SwitchboardPID, c.PMPID, c.MemSchedPID,
		c.DiskPID, c.CachePID, c.FilePID, c.DirPID, c.ShellPID,
	} {
		if pid.IsNil() {
			t.Fatal("a system process was not booted")
		}
		if _, ok := c.Locate(pid); !ok {
			t.Fatalf("system process %v vanished", pid)
		}
	}
}

// TestKernelLoadReportsReachPM: the load-report period is a kernel setting,
// so a cluster configured through Options.Kernel alone has every machine
// report to the process manager.
func TestKernelLoadReportsReachPM(t *testing.T) {
	c, err := core.New(core.Options{Machines: 3, PM: true, Kernel: kernel.Config{LoadReportEvery: 50000}})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(200000)
	body, ok := c.Kernel(1).BodyOf(c.PMPID)
	if !ok {
		t.Fatal("no process manager on m1")
	}
	if loads := body.(*procmgr.Manager).Loads; len(loads) != 3 {
		t.Fatalf("the process manager holds load reports from %d machines, want 3", len(loads))
	}
}

func TestShellSession(t *testing.T) {
	c := full(t, 3, func(o *core.Options) { o.Kernel.LoadReportEvery = 50000 })
	c.Run()
	cmds := []string{"help", "whoami", "lookup fs.dir", "lookup nosuch", "run 2 cpu", "ps", "bogus"}
	for _, cmd := range cmds {
		if cmd == "ps" {
			// Let a round of load reports reach the process manager
			// so ps has machine lines to show.
			c.RunFor(200000)
		}
		if err := c.ShellCommand(cmd); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	out := strings.Join(c.Console(c.ShellPID), "\n")
	for _, want := range []string{
		"commands:", "shell p1.", "lookup: link to", "not found",
		"spawned:", "unknown command: bogus",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("shell output missing %q:\n%s", want, out)
		}
	}
	// ps must list machines with load lines.
	if !strings.Contains(out, "m1 cpu=") {
		t.Fatalf("ps output missing:\n%s", out)
	}
}

func TestShellMigrateCommand(t *testing.T) {
	c := full(t, 3, nil)
	pid, err := c.SpawnProgram(2, workload.CPUBound(200000))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5000)
	if err := c.ShellCommand(fmt.Sprintf("migrate %d.%d 3", pid.Creator, pid.Local)); err != nil {
		t.Fatal(err)
	}
	c.Run()
	e, m, ok := c.ExitOf(pid)
	if !ok || m != 3 {
		t.Fatalf("process finished on %v (ok=%v), want m3", m, ok)
	}
	if e.Code != workload.CPUBoundResult(200000) {
		t.Fatalf("wrong result after shell migration: %d", e.Code)
	}
	out := strings.Join(c.Console(c.ShellPID), "\n")
	if !strings.Contains(out, "migrated:") {
		t.Fatalf("shell did not report the migration:\n%s", out)
	}
}

func TestClusterMigrateViaPM(t *testing.T) {
	c := full(t, 2, nil)
	pid, _ := c.SpawnProgram(1, workload.CPUBound(100000))
	c.RunFor(3000)
	if err := c.Migrate(pid, 2); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if _, m, ok := c.ExitOf(pid); !ok || m != 2 {
		t.Fatalf("exit machine %v ok=%v", m, ok)
	}
	// The PM's location table learned the move.
	if at := c.PM().Locations[pid]; at != 2 {
		t.Fatalf("PM thinks %v is at %v", pid, at)
	}
}

func TestSelfMigration(t *testing.T) {
	c := full(t, 3, nil)
	pid, err := c.SpawnProgram(1, workload.SelfMigrator(4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	e, m, ok := c.ExitOf(pid)
	if !ok {
		t.Fatal("self-migrator never finished")
	}
	if m != 3 {
		t.Fatalf("finished on %v, want m3 (its own request)", m)
	}
	if e.Code != workload.CPUBoundResult(4000) {
		t.Fatalf("result %d corrupted by self-migration", e.Code)
	}
}

func TestFSClientsViaCluster(t *testing.T) {
	c := full(t, 3, nil)
	var pids []addr.ProcessID
	for i := 0; i < 3; i++ {
		pid, err := c.SpawnFSClient(2, fmt.Sprintf("file%d", i), 5, 700)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	c.Run()
	for _, pid := range pids {
		e, _, ok := c.ExitOf(pid)
		if !ok || e.Code != 5 {
			t.Fatalf("fs client %v verified %d/5 (ok=%v)", pid, e.Code, ok)
		}
	}
}

func TestThresholdPolicyBalancesLoad(t *testing.T) {
	c := full(t, 3, func(o *core.Options) {
		o.Policy = policy.NewThreshold(60, 30, 200000)
		o.Kernel.LoadReportEvery = 100000
	})
	// Pile CPU-bound work onto machine 2; machines 1 and 3 idle.
	var pids []addr.ProcessID
	for i := 0; i < 6; i++ {
		pid, _ := c.SpawnProgram(2, workload.CPUBound(400000))
		pids = append(pids, pid)
	}
	c.Run()
	for _, pid := range pids {
		e, _, ok := c.ExitOf(pid)
		if !ok || e.Code != workload.CPUBoundResult(400000) {
			t.Fatalf("process %v corrupted under policy migration", pid)
		}
	}
	if c.PM().PolicyDecisions == 0 {
		t.Fatal("threshold policy never migrated anything off the hot machine")
	}
	// At least one process must have finished away from machine 2.
	moved := 0
	for _, pid := range pids {
		if _, m, _ := c.ExitOf(pid); m != 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no process actually ran elsewhere")
	}
}

func TestCommAffinityPolicy(t *testing.T) {
	c := full(t, 2, func(o *core.Options) {
		o.Policy = policy.NewCommAffinity(5, 200000)
		o.Kernel.LoadReportEvery = 100000
	})
	// A sink on m2 and a chatter on m1 that talks to it constantly.
	sink, _ := c.Spawn(2, kernel.SpawnSpec{Body: &workload.Sink{}})
	chatter, _ := c.Spawn(1, kernel.SpawnSpec{
		Body:  &workload.Chatter{N: 600, Interval: 2000},
		Links: []link.Link{{Addr: addr.At(sink, 2)}},
	})
	c.Run()
	e, m, ok := c.ExitOf(chatter)
	if !ok || e.Code != 600 {
		t.Fatalf("chatter sent %d/600 (ok=%v)", e.Code, ok)
	}
	if m != 2 {
		t.Fatalf("chatter finished on %v; affinity policy should have moved it to m2", m)
	}
	if c.PM().PolicyDecisions == 0 {
		t.Fatal("no policy decision recorded")
	}
}

func TestDrainPolicyEvacuates(t *testing.T) {
	c := full(t, 3, func(o *core.Options) {
		o.Policy = policy.NewDrain(2)
		o.Kernel.LoadReportEvery = 50000
	})
	var pids []addr.ProcessID
	for i := 0; i < 3; i++ {
		pid, _ := c.SpawnProgram(2, workload.CPUBound(300000))
		pids = append(pids, pid)
	}
	c.Run()
	for _, pid := range pids {
		e, m, ok := c.ExitOf(pid)
		if !ok || e.Code != workload.CPUBoundResult(300000) {
			t.Fatalf("drained process %v corrupted", pid)
		}
		if m == 2 {
			t.Fatalf("process %v still finished on the dying machine", pid)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, string) {
		c := full(t, 3, func(o *core.Options) {
			o.Policy = policy.NewThreshold(60, 30, 200000)
			o.Kernel.LoadReportEvery = 100000
		})
		for i := 0; i < 4; i++ {
			c.SpawnProgram(2, workload.CPUBound(200000))
		}
		c.SpawnFSClient(3, "det", 4, 600)
		c.Run()
		s := c.Stats()
		return s.TotalAdmin(), s.Net.Frames, fmt.Sprint(c.Reports())
	}
	a1, f1, r1 := run()
	a2, f2, r2 := run()
	if a1 != a2 || f1 != f2 || r1 != r2 {
		t.Fatalf("nondeterministic simulation: admin %d/%d frames %d/%d\n%s\n---\n%s",
			a1, a2, f1, f2, r1, r2)
	}
}

func TestMemSchedSeesReports(t *testing.T) {
	c := full(t, 2, func(o *core.Options) {
		o.Kernel.LoadReportEvery = 50000
	})
	c.SpawnProgram(1, workload.CPUBound(100000))
	c.RunFor(400000)
	body, ok := c.Kernel(1).BodyOf(c.MemSchedPID)
	if !ok {
		t.Fatal("memsched gone")
	}
	sched := body.(*memsched.Scheduler)
	if len(sched.UsedKB) == 0 {
		t.Fatal("memory scheduler never received a forwarded load report")
	}
}

func TestStatsAggregation(t *testing.T) {
	c := full(t, 2, nil)
	pid, _ := c.SpawnProgram(1, workload.CPUBound(100000))
	c.RunFor(3000)
	c.Migrate(pid, 2)
	c.Run()
	s := c.Stats()
	if s.TotalMigrations() != 1 {
		t.Fatalf("migrations = %d", s.TotalMigrations())
	}
	if s.TotalAdmin() == 0 || s.Net.Frames == 0 {
		t.Fatal("stats did not aggregate")
	}
	reps := c.Reports()
	if len(reps) != 1 || reps[0].PID != pid {
		t.Fatalf("reports: %v", reps)
	}
}

// TestNewRejectsMachineIDOverflow: a machine id is 16 bits with 0 reserved,
// so a cluster of more than 65 535 machines is an error from New, not a
// panic inside kernel.New at machine 65 536. The check comes before
// anything is built: the rejected call allocates a handful of objects, not
// 65 536 kernels.
func TestNewRejectsMachineIDOverflow(t *testing.T) {
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = core.New(core.Options{Machines: 1 << 16})
	})
	if err == nil || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("core.New with 65536 machines: err = %v, want an error naming the 65535 limit", err)
	}
	if allocs > 10 {
		t.Errorf("the rejected New allocated %.0f objects, want it to build nothing", allocs)
	}
}
