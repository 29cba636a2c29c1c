package kernel

// A forwarding address is an entry of the forwarder table, not a process
// record (fwd, deliver.go). These tests pin the rules that follow: a live
// record of the pid wins over the entry wherever both exist, an entry keeps
// its UID taken, and nothing that counts processes counts the table.

import (
	"fmt"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// TestReturnMigrationShadowsForwarder: a process migrates m1 -> m2 and back.
// During the return's steps 3-8 m1 holds both the incoming record and the
// forwarding address it left; the record wins everywhere: Process reports
// it, Processes lists the pid once, a search query is answered "here", and
// ForwarderBytes does not count the shadowed address. Step 8 drops it.
func TestReturnMigrationShadowsForwarder(t *testing.T) {
	e, ks := poolTestCluster(t, 3)
	k1 := ks[0]
	pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	e.Run()
	if info, ok := k1.Process(pid); !ok || info.State != StateForwarder || info.FwdTo != 2 {
		t.Fatalf("after m1->m2, m1 holds %+v (%v), want a forwarding address to m2", info, ok)
	}
	fwdBytes := k1.Stats().ForwarderBytes

	ks[1].RequestMigrationOf(addr.At(pid, 2), 1)
	window, searched := 0, false
	for e.Step() {
		if p := k1.lookup(pid); p == nil || p.state != StateIncoming {
			continue
		}
		window++
		if _, ok := k1.fwdOf(pid); !ok {
			t.Fatal("the forwarding address left the table before step 8")
		}
		if info, ok := k1.Process(pid); !ok || info.State != StateIncoming {
			t.Fatalf("Process(%v) = %+v (%v) during the return, want the incoming record", pid, info, ok)
		}
		n := 0
		for _, info := range k1.Processes() {
			if info.PID == pid {
				n++
				if info.State != StateIncoming {
					t.Fatalf("Processes() lists %v as %v, want incoming", pid, info.State)
				}
			}
		}
		if n != 1 {
			t.Fatalf("Processes() lists %v %d times, want once", pid, n)
		}
		if got := k1.Stats().ForwarderBytes; got != fwdBytes-ForwarderWireSize {
			t.Fatalf("ForwarderBytes = %d during the return, want %d: a shadowed address does not answer", got, fwdBytes-ForwarderWireSize)
		}
		if !searched {
			searched = true
			k1.DeliverFrame(&msg.Message{Kind: msg.KindControl, Op: msg.OpSearchQuery,
				From: addr.KernelAddr(3), To: addr.KernelAddr(1), Body: msg.PIDMachine{PID: pid, Machine: 3}.Encode()})
		}
	}
	if window == 0 {
		t.Fatal("m1 never held the incoming record")
	}
	if info, ok := k1.Process(pid); !ok || info.State == StateForwarder {
		t.Fatalf("after the return, m1 holds %+v (%v), want the process", info, ok)
	}
	if _, ok := k1.fwdOf(pid); ok || k1.Stats().ForwarderBytes != fwdBytes-ForwarderWireSize {
		t.Fatalf("step 8 left the address in the table (ForwarderBytes %d)", k1.Stats().ForwarderBytes)
	}
	want := fmt.Sprintf("%v is at %v (asked by %v)", pid, addr.MachineID(1), addr.MachineID(3))
	replies := 0
	for _, r := range k1.cfg.Tracer.Records() {
		if r.Event() == "search-reply" {
			replies++
			if r.Detail() != want {
				t.Fatalf("search reply %q, want %q", r.Detail(), want)
			}
		}
	}
	if replies != 1 {
		t.Fatalf("m1 answered %d search queries, want 1", replies)
	}
}

// TestLoadReportCountsNoForwarders: a machine whose processes have all
// migrated away holds only forwarding addresses, and its load report counts
// no process and lists no per-process row.
func TestLoadReportCountsNoForwarders(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netw.New(eng, netw.Config{})
	reg := proc.NewRegistry()
	reg.Register("pool-drain", func() proc.Body { return &poolDrainBody{} })
	cfg := Config{Registry: reg, LoadReportEvery: 1_000_000, Machines: []addr.MachineID{1, 2}}
	k1, k2 := New(1, eng, net, cfg), New(2, eng, net, cfg)
	pm := &reportProbe{}
	pmPID, err := k2.Spawn(SpawnSpec{Body: pm})
	if err != nil {
		t.Fatal(err)
	}
	k1.SetPMLink(link.Link{Addr: addr.At(pmPID, 2)})
	var pids []addr.ProcessID
	for i := 0; i < 3; i++ {
		pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	eng.RunFor(10_000)
	for _, pid := range pids {
		k1.RequestMigrationOf(addr.At(pid, 1), 2)
	}
	eng.RunFor(100_000)
	for _, info := range k1.Processes() {
		if info.State != StateForwarder {
			t.Fatalf("m1 still holds %+v, want only forwarding addresses", info)
		}
	}
	if n := len(k1.Processes()); n != len(pids) {
		t.Fatalf("m1 holds %d forwarding addresses, want %d", n, len(pids))
	}
	k1.sendLoadReport()
	eng.RunFor(10_000)
	if pm.n == 0 || pm.last.Machine != 1 {
		t.Fatalf("the process manager got %d reports, the last %+v; want m1's", pm.n, pm.last)
	}
	if pm.last.ProcCount != 0 || len(pm.last.Procs) != 0 {
		t.Fatalf("m1 reports %d processes and rows %+v, want none", pm.last.ProcCount, pm.last.Procs)
	}
}

// TestForwarderKeepsItsUID: a local UID whose process migrated away stays
// taken while its forwarding address lives, as it did when the address was
// a record in the UID's slot: a spawn that reaches it skips it, so a stale
// send for the migrated process is forwarded, not delivered to a newcomer.
func TestForwarderKeepsItsUID(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1 := ks[0]
	pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	e.Run()
	k1.nextUID = pid.Local // the counter wraps round to the address's UID
	next, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	if next == pid {
		t.Fatalf("spawn issued %v, which its forwarding address still holds", pid)
	}
	if info, ok := k1.Process(pid); !ok || info.State != StateForwarder || info.FwdTo != 2 {
		t.Fatalf("m1 holds %+v (%v) for %v, want its forwarding address to m2", info, ok, pid)
	}
}

// TestSetObsWithoutLedgerKeepsAttribution: a forwarding address names its
// migration's record by index in the kernel's ledger, so attaching a
// registry with no ledger after a migration leaves that ledger in place,
// and a stale send through the address is still charged to the migration.
func TestSetObsWithoutLedgerKeepsAttribution(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	pid, err := ks[0].Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := ks[0].Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	ks[0].RequestMigrationOf(addr.At(pid, 1), 2)
	e.Run()
	ks[0].SetObs(nil, nil)
	if err := ks[0].GiveMessage(pid, addr.At(sender, 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if r := ks[0].Reports(); len(r) != 1 || r[0].ForwardsAbsorbed != 1 {
		t.Fatalf("m1 Reports() = %+v, want one migration that absorbed the stale send", r)
	}
}
