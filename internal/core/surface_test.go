package core_test

import (
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/workload"
)

// TestClusterSurface exercises the remaining accessors and SpawnVM.
func TestClusterSurface(t *testing.T) {
	var sink strings.Builder
	c, err := core.New(core.Options{
		Machines:    2,
		Switchboard: true,
		PM:          true,
		TraceSink:   &sink,
		TraceCap:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Machines() != 2 || c.Engine() == nil || c.Shards() != 1 {
		t.Fatal("accessors")
	}
	pid, err := c.SpawnVM(2, `
	start:	movi r0, 5
		sys exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if c.Now() == 0 {
		t.Fatal("clock did not advance")
	}
	e, m, ok := c.ExitOf(pid)
	if !ok || m != 2 || e.Code != 5 {
		t.Fatalf("SpawnVM result: %+v %v %v", e, m, ok)
	}
	if !strings.Contains(sink.String(), "spawn") {
		t.Fatal("trace sink saw nothing")
	}
	// Bad assembly reports an error.
	if _, err := c.SpawnVM(1, "bogus r9"); err == nil {
		t.Fatal("bad asm accepted")
	}
	// Spawn on a nonexistent machine.
	if _, err := c.SpawnVM(99, "nop\nsys exit"); err == nil {
		t.Fatal("machine 99 accepted")
	}
}

// TestStatsTotals covers the aggregate helpers against a real migration
// with traffic.
func TestStatsTotals(t *testing.T) {
	c := full(t, 2, nil)
	server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(20)})
	client, _ := c.Spawn(2, kernel.SpawnSpec{
		Program: workload.RequestClient(20),
		Links:   []link.Link{{Addr: addr.At(server, 1)}},
	})
	c.RunFor(4000)
	c.Migrate(server, 2)
	c.Run()
	if e, _, _ := c.ExitOf(client); e.Code != 20 {
		t.Fatalf("client rounds %d", e.Code)
	}
	s := c.Stats()
	if s.TotalForwarded() == 0 || s.TotalLinkUpdates() == 0 || s.TotalMigrations() != 1 {
		t.Fatalf("totals: fwd=%d upd=%d mig=%d",
			s.TotalForwarded(), s.TotalLinkUpdates(), s.TotalMigrations())
	}
}
