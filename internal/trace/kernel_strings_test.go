package trace_test

import (
	"slices"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/netw"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

// TestMigrationAddsNoTableString: a clean migration and a forward through
// the forwarding address it leaves record every step, region, state and
// message kind as a word, so the tracer's string table holds after them
// exactly the strings it held before (the spawned body's kind). A kernel
// site that passes an enum's String as the record's string again fails
// here.
func TestMigrationAddsNoTableString(t *testing.T) {
	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	tr := trace.New(e.Now, 0)
	cfg := kernel.Config{Registry: workload.Registry(), Tracer: tr}
	k1, k2 := kernel.New(1, e, nw, cfg), kernel.New(2, e, nw, cfg)
	pid, err := k1.Spawn(kernel.SpawnSpec{Body: &workload.Counter{Seen: 7}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	before := tr.TableStrings()
	if len(before) == 0 {
		t.Fatal("the spawn recorded no kind")
	}

	k1.RequestMigrationOf(addr.At(pid, 1), k2.Machine())
	e.Run()
	k1.GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(1), []byte{1})
	e.Run()

	for _, ev := range []string{"step1-remove-from-execution", "step4-transfer-state", "step5-transfer-program",
		"stream-region", "step8-restart", "forward"} {
		if tr.Count(ev) == 0 {
			t.Fatalf("no %s record: the scene did not migrate and forward", ev)
		}
	}
	if r, _ := tr.Find("step8-restart"); r.Detail() != pid.String()+" restarted as waiting (0 pending had been forwarded)" {
		t.Errorf("step 8 renders %q", r.Detail())
	}
	if after := tr.TableStrings(); !slices.Equal(after, before) {
		t.Errorf("string table held %q before the migration and forward, %q after", before, after)
	}
}
