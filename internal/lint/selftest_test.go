package lint

import (
	"go/ast"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadSelf loads the enclosing demosmp module (the repository itself).
func loadSelf(t *testing.T) *Module {
	t.Helper()
	mod, err := LoadModule("../..", ModulePath)
	if err != nil {
		t.Fatalf("loading the repository: %v", err)
	}
	return mod
}

// TestRepositoryLintsClean is the self-test: the full demoslint suite over
// the real tree must report nothing. This is the same gate scripts/check.sh
// runs; keeping it in `go test` means a violation fails the ordinary test
// run too, not just CI.
func TestRepositoryLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod := loadSelf(t)
	diags := Run(mod, DemosAnalyzers())
	for _, d := range diags {
		t.Errorf("%v", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d finding(s) in the repository; fix them (a rule that must tolerate a site takes a table in demos.go)", len(diags))
	}
}

// TestRuleTableDoc keeps DESIGN.md §8's rule table in step with the suite:
// its rows name exactly DemosAnalyzers' rules, in order. Adding, folding or
// renaming a rule means editing the table in the same commit.
func TestRuleTableDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 8. ")
	if !ok {
		t.Fatal("DESIGN.md has no §8")
	}
	sec, _, _ = strings.Cut(sec, "\n### 8.1")
	var got, want []string
	for _, line := range strings.Split(sec, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			got = append(got, name)
		}
	}
	for _, a := range DemosAnalyzers() {
		want = append(want, a.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DESIGN.md §8 rule table names %v, DemosAnalyzers has %v", got, want)
	}
}

// TestHotpathAnnotationSet pins the //demos:hotpath inventory to the
// functions bench_hotpath_test.go actually guards. Annotating a new
// function means extending both the benchmark and this list in the same
// commit — the annotation is a promise, not decoration.
func TestHotpathAnnotationSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	want := map[string][]string{
		"demosmp/internal/sim": {
			"Time.String", "Engine.schedule", "Engine.freeSlot",
			"Engine.place", "Engine.place0", "Engine.placeUp",
			"Engine.cascade", "Engine.peek", "Engine.take",
		},
		"demosmp/internal/netw": {
			"Network.Send", "Network.account", "Network.deliver",
			"Network.canonSend", "Network.pump",
			"Network.pendPush", "Network.pendFile",
			// The ARQ round: send, wire copy, land, ack, check.
			"Network.canonSendARQ", "Network.arqTransmit", "Network.arqEnqueue",
			"Network.arqLand", "Network.arrive", "arqFlight.check",
			"Network.cloneFor", "Network.release",
			"arqSender.put", "arqSender.take", "dedup.admit",
		},
		"demosmp/internal/msg": {
			"Message.WireSize", "Message.AppendWire", "Encode",
			"MigrateRequest.AppendTo", "MigrateAsk.AppendTo", "PIDMachine.AppendTo",
			"MoveDataReq.AppendTo", "MigrateCleanup.AppendTo", "MigrateDone.AppendTo",
			"LinkUpdate.AppendTo", "CreateProcess.AppendTo", "CreateDone.AppendTo",
			"MoveRead.AppendTo", "XferStatus.AppendTo", "LoadReport.AppendTo",
			"Pool.Get", "Pool.Put", "Pool.Clone",
		},
		"demosmp/internal/link": {
			"Table.AppendSnapshot",
		},
		// Deferred trace records and the body state codec (not its map
		// branch, which sorts): what a traced, stateful migration runs
		// besides the protocol.
		"demosmp/internal/trace": {
			"Tracer.Log",
		},
		"demosmp/internal/proc": {
			"Snapshot", "Restore", "codec.put", "codec.read",
		},
		"demosmp/internal/kernel": {
			// Delivery fast path.
			"Kernel.route", "Kernel.deliverLocal", "Kernel.enqueue",
			"Kernel.forward", "Kernel.kernelMsg", "Kernel.sendLinkUpdate",
			// Envelope pool and table plumbing.
			"Kernel.lookup", "Kernel.getMsg", "Kernel.putMsg",
			"Kernel.newControl", "Kernel.sendAdmin",
			"Kernel.getPending", "Kernel.putPending", "pending.run",
			// Scheduler.
			"Kernel.maybeSchedule", "Kernel.runSlice", "Kernel.enqueueRun",
			"Kernel.pushRun", "runQueue.push", "runQueue.pop",
			// Syscall layer.
			"procCtx.send", "procCtx.Recv", "procCtx.SetTimer",
			// Spawn -> timer -> exit: the dense tables, the fired timer's
			// fire, its hop to the mark, and the recycle site.
			"Kernel.addProc", "Kernel.delProc", "Kernel.noteExit",
			"pending.fire", "pending.hop", "Kernel.markTimer", "Kernel.terminate",
			// Move-data facility.
			"Kernel.ack", "Kernel.handleAck", "Kernel.handleDataPacket",
			"Kernel.streamGather",
			// Migration fast path (record pools + gather encoders).
			"Kernel.getProcRec", "Kernel.putProcRec", "Kernel.internKind",
			"Kernel.migrationMsg", "Kernel.endMigration",
			"coldState.getMigration", "coldState.putMigration",
			"Kernel.stepMoveData", "Kernel.pullRegion",
			"Kernel.regionArrived", "Kernel.commitIncoming",
			"appendResident",
			// Deferred trace emit.
			"Kernel.trace",
			// Process queue, ring buffer and the Process record chain.
			"mailbox.push", "mailbox.pop",
			"ring.push", "ring.pop",
			"Kernel.getParked", "Kernel.park",
		},
		// Observability plane: the registry slot the instrumented hot
		// paths write through, and the §6 per-migration accounting
		// sendAdmin calls on the one record type.
		"demosmp/internal/obs": {
			"Histogram.Observe", "MigrationRecord.NoteAdmin",
		},
	}
	got := hotpathFuncs(loadSelf(t))
	for _, fns := range got {
		sort.Strings(fns)
	}
	for _, fns := range want {
		sort.Strings(fns)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("//demos:hotpath inventory drifted\n got: %v\nwant: %v", got, want)
	}
}

// hotpathFuncs returns, per package import path, the names of functions
// annotated //demos:hotpath (methods as Type.Name).
func hotpathFuncs(mod *Module) map[string][]string {
	out := make(map[string][]string)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasDirective(fd.Doc, "hotpath") {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = recvTypeName(fd.Recv.List[0].Type) + "." + name
				}
				out[pkg.ImportPath] = append(out[pkg.ImportPath], name)
			}
		}
	}
	return out
}

// TestRepositoryOwnershipClean runs only the ownership borrow checker over
// the real tree and additionally pins the //demos:owner blessing inventory:
// the analyzer must be clean, and every blessing role in the repository
// must be one of the reviewed retainer roles catalogued in DESIGN.md §8's
// blessed-retention table. A new role means a new row in that table, in
// the same commit.
func TestRepositoryOwnershipClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod := loadSelf(t)
	diags := Run(mod, []Analyzer{
		Ownership{MsgPath: ModulePath + "/internal/msg"},
	})
	for _, d := range diags {
		t.Errorf("%v", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d ownership finding(s); the pooled-envelope discipline regressed", len(diags))
	}

	catalogued := map[string]bool{
		"pool": true, "mailbox": true, "pending": true, "bounce": true,
		"locate": true, "stream": true, "outbox": true,
		"inflight": true,
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//demos:owner ")
					if !ok {
						continue
					}
					role := rest
					if i := strings.IndexAny(role, " \t"); i >= 0 {
						role = role[:i]
					}
					if !catalogued[role] {
						pos := mod.Fset.Position(c.Pos())
						t.Errorf("%s:%d: //demos:owner role %q is not in DESIGN.md §8's blessed-retention table", pos.Filename, pos.Line, role)
					}
				}
			}
		}
	}
}
