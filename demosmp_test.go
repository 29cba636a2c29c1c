package demosmp_test

import (
	"testing"

	"demosmp"
)

// TestQuickstart is the package-doc example as a test: migrate a running
// computation and get the same answer on another machine.
func TestQuickstart(t *testing.T) {
	c, err := demosmp.New(demosmp.Options{Machines: 3, Switchboard: true, PM: true})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := c.SpawnProgram(1, demosmp.CPUBound(100000))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5000)
	if err := c.Migrate(pid, 2); err != nil {
		t.Fatal(err)
	}
	c.Run()
	exit, machine, ok := c.ExitOf(pid)
	if !ok || machine != 2 {
		t.Fatalf("finished on %v (ok=%v), want m2", machine, ok)
	}
	if exit.Code != demosmp.CPUBoundResult(100000) {
		t.Fatalf("result %d changed by migration", exit.Code)
	}
}

func TestAssembleSurface(t *testing.T) {
	p, err := demosmp.Assemble(`
	start:	movi r0, 9
		sys exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := demosmp.New(demosmp.Options{Machines: 1})
	pid, err := c.SpawnProgram(1, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if e, _, ok := c.ExitOf(pid); !ok || e.Code != 9 {
		t.Fatalf("exit: %+v ok=%v", e, ok)
	}
}

// TestWorkloadSurface wires the exported workload generators together via
// the facade alone.
func TestWorkloadSurface(t *testing.T) {
	c, err := demosmp.New(demosmp.Options{Machines: 2, Switchboard: true, PM: true, FS: true})
	if err != nil {
		t.Fatal(err)
	}
	server, err := c.Spawn(1, demosmp.SpawnSpec{Program: demosmp.EchoServer(5)})
	if err != nil {
		t.Fatal(err)
	}
	client, err := c.Spawn(2, demosmp.SpawnSpec{
		Program: demosmp.RequestClient(5),
		Links:   []demosmp.Link{demosmp.LinkTo(server, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	vmfile, err := c.Spawn(2, demosmp.SpawnSpec{
		Program: demosmp.VMFileClient(),
		Links: []demosmp.Link{
			demosmp.LinkTo(c.DirPID, 1),
			demosmp.LinkTo(c.FilePID, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if e, _, ok := c.ExitOf(client); !ok || e.Code != 5 {
		t.Fatalf("client: %+v %v", e, ok)
	}
	if e, _, ok := c.ExitOf(vmfile); !ok || e.Code != 600 {
		t.Fatalf("vmfile: %+v %v", e, ok)
	}
}

func TestPolicySurface(t *testing.T) {
	c, err := demosmp.New(demosmp.Options{
		Machines:    2,
		Switchboard: true,
		PM:          true,
		Policy:      demosmp.NewThresholdPolicy(60, 30, 100000),
		Kernel:      demosmp.KernelConfig{LoadReportEvery: 50000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.SpawnProgram(1, demosmp.CPUBound(200000))
	}
	c.Run()
	if c.Stats().TotalMigrations() == 0 {
		t.Fatal("threshold policy made no migrations through the facade")
	}
}
