package kernel

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// deferredFormat is one row of the render-equivalence table: a format the
// kernel hands to tracef with its argument constructors, as they stand in
// the source, beside the format string and typed arguments the same site
// gave fmt.Sprintf when every detail was rendered at emit time.
type deferredFormat struct {
	events  string // the sites, for the reader
	format  string // tracef's format argument
	ctors   string // tracef's trace.Arg constructors, in order
	oldFmt  string // the eager site's Sprintf format
	oldArgs []any  // ... and representative arguments of the types it passed
}

var (
	rPID  = addr.ProcessID{Creator: 3, Local: 17}
	rPID2 = addr.ProcessID{Creator: 65535, Local: 65535}
	rMach = addr.MachineID(12)
)

var deferredFormats = []deferredFormat{
	{"forward", "%v for %v -> %v (hop %d)", "Str PID Machine Int",
		"%v for %v -> %v (hop %d)", []any{msg.KindUser, rPID, rMach, uint8(2)}},
	{"linkupdate-sent", "to kernel of %v: %v is now on %v", "PID PID Machine",
		"to kernel of %v: %v is now on %v", []any{rPID, rPID2, rMach}},
	{"linkupdate-applied", "%d links of %v now point at %v on %v", "Int PID PID Machine",
		"%d links of %v now point at %v on %v", []any{3, rPID, rPID2, rMach}},
	{"eager-applied", "%d links now point at %v on %v", "Int PID Machine",
		"%d links now point at %v on %v", []any{0, rPID, rMach}},
	{"dead-letter", "%v for %v", "Str PID",
		"%v for %v", []any{msg.KindLinkUpdate, rPID}},
	{"bounce", "%v for %v returned to %v", "Str PID Machine",
		"%v for %v returned to m%d", []any{msg.KindUser, rPID, uint16(rMach)}},
	// These five passed pid.String() as the whole detail.
	{"forwarder-reclaimed suspend resume timeout-commit search-broadcast", "%v", "PID",
		"%s", []any{rPID2}},
	// print, the sites that pass an error's text, and checkpoint (its sizes
	// rendered).
	{"print crash revive-failed migrate-aborted refused incoming-failed carried-link-dropped checkpoint", "%v: %s", "PID Str",
		"%v: %s", []any{rPID, "100% done\ttab %v"}},
	// The text whole; create-failed joins the program name and the error's.
	{"unknown-control create-failed write-fault read-fault linkupdate-bad", "%s", "Str",
		"%s", []any{"bad %v: 100%"}},
	{"stray-packet", "xfer=%d seq=%d", "Int Int",
		"xfer=%d seq=%d", []any{uint16(65535), uint32(1 << 31)}},
	{"spawn", "%v kind=%s image=%dB links=%d", "PID Str Int Int",
		"%v kind=%s image=%dB links=%d", []any{rPID, "wl-counter", 65536, 2}},
	{"swapped-out", "%v: %d pages under memory pressure", "PID Int",
		"%v: %d pages under memory pressure", []any{rPID, 7}},
	{"exit", "%v code=%d", "PID Int",
		"%v code=%d", []any{rPID, int32(-1)}},
	{"revive", "%v as %v from %dB checkpoint", "PID Str Int",
		"%v as %v from %dB checkpoint", []any{rPID, StateSuspended, 5000}},
	{"timeout-commit-yield", "%v yields to restored copy on %v", "PID Machine",
		"%v yields to restored copy on %v", []any{rPID, rMach}},
	{"step1-remove-from-execution", "%v was %v", "PID Str",
		"%v was %v", []any{rPID, StateWaiting}},
	{"step2-ask-destination", "%v -> %v (program=%dB resident=%dB swappable=%dB)", "PID Machine Int Int Int",
		"%v -> %v (program=%dB resident=%dB swappable=%dB)", []any{rPID, rMach, 1 << 33, 250, 600}},
	{"accepted", "%v by %v", "PID Machine",
		"%v by %v", []any{rPID, rMach}},
	{"stream-region", "%v %v: %dB in %d packets -> %v", "PID Str Int Int Machine",
		"%v %v: %dB in %d packets -> %v", []any{rPID, msg.RegionSwappable, 600, 2, rMach}},
	{"step6-forward-pending", "%v: %d queued messages to %v", "PID Int Machine",
		"%v: %d queued messages to %v", []any{rPID, 4, rMach}},
	{"step7-cleanup-forwarding-address", "%v: forwarder -> %v (%d bytes)", "PID Machine Int",
		"%v: forwarder -> %v (%d bytes)", []any{rPID, rMach, ForwarderWireSize}},
	{"step3-allocate-state", "%v from %v (reserving %dB)", "PID Machine Int",
		"%v from %v (reserving %dB)", []any{rPID, rMach, 4096}},
	{"step4-transfer-state step5-transfer-program", "%v pull %v", "PID Str",
		"%v pull %v", []any{rPID, msg.RegionProgram}},
	// step8 rendered its parenthesis first, from one of two notes.
	{"step8-restart (watchdog)", "%v restarted as %v (committed on watchdog timeout)", "PID Str",
		"%v restarted as %v (%s)", []any{rPID, StateReady, "committed on watchdog timeout"}},
	{"step8-restart", "%v restarted as %v (%d pending had been forwarded)", "PID Str Int",
		"%v restarted as %v (%s)", []any{rPID, StateWaiting, 3}},
	{"restart", "%v back up (restart %d)", "Machine Int",
		"m%d back up (restart %d)", []any{uint16(rMach), uint64(2)}},
	{"search-reroute", "%v for %v -> creator %v", "Str PID Machine",
		"%v for %v -> creator m%d", []any{msg.KindUser, rPID, uint16(rPID.Creator)}},
	{"search-timeout", "%v: %d held messages dead-lettered", "PID Int",
		"%v: %d held messages dead-lettered", []any{rPID, 5}},
	{"search-reply", "%v is at %v (asked by %v)", "PID Machine Machine",
		"%v is at m%d (asked by m%d)", []any{rPID, uint16(rMach), uint16(1)}},
}

// TestDeferredTraceRendersAsBefore: every format a tracef site in this
// package defers renders, from arguments built the way the site builds them,
// exactly the text fmt.Sprintf gave the eager site — and the table misses no
// site (the sites are read from the source, so a new or edited tracef call
// fails here until it has a row).
func TestDeferredTraceRendersAsBefore(t *testing.T) {
	var now sim.Time
	tr := trace.New(func() sim.Time { return now }, 0)
	inTable := map[string]bool{}
	for _, row := range deferredFormats {
		inTable[row.format+" | "+row.ctors] = true

		old := row.oldArgs
		if row.events == "step8-restart" { // the note was itself a Sprintf
			old = []any{old[0], old[1], fmt.Sprintf("%d pending had been forwarded", old[2])}
		}
		want := fmt.Sprintf(row.oldFmt, old...)

		ctors := strings.Fields(row.ctors)
		args := make([]trace.Arg, len(ctors))
		for i, ctor := range ctors {
			v := reflect.ValueOf(row.oldArgs[i])
			switch ctor {
			case "PID":
				args[i] = trace.PID(row.oldArgs[i].(addr.ProcessID))
			case "Machine":
				args[i] = trace.Machine(addr.MachineID(v.Uint()))
			case "Int":
				if v.CanInt() {
					args[i] = trace.Int(int(v.Int()))
				} else {
					args[i] = trace.Int(int(v.Uint()))
				}
			case "Str": // sites pass x.String(), or a string they hold
				args[i] = trace.Str(fmt.Sprint(row.oldArgs[i]))
			}
		}
		tr.Emitf(rMach, trace.CatMigrate, row.events, row.format, args...)
		recs := tr.Records()
		if got := recs[len(recs)-1].Detail(); got != want {
			t.Errorf("%s: deferred detail %q, the eager site rendered %q", row.events, got, want)
		}
	}

	inSource := tracefSites(t)
	for site := range inSource {
		if !inTable[site] {
			t.Errorf("tracef site with no row in deferredFormats: %s", site)
		}
	}
	for site := range inTable {
		if !inSource[site] {
			t.Errorf("deferredFormats row matches no tracef site: %s", site)
		}
	}
}

// tracefSites parses the package's non-test source and returns every
// distinct "format | constructors" a tracef call passes.
func tracefSites(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "tracef" {
					return true
				}
				lit, ok := call.Args[2].(*ast.BasicLit)
				if !ok {
					t.Errorf("%s: tracef format is not a string literal", fset.Position(call.Pos()))
					return true
				}
				format, _ := strconv.Unquote(lit.Value)
				var ctors []string
				for _, a := range call.Args[3:] {
					c, ok := a.(*ast.CallExpr)
					if !ok {
						t.Errorf("%s: tracef argument is not a trace constructor call", fset.Position(a.Pos()))
						continue
					}
					ctors = append(ctors, c.Fun.(*ast.SelectorExpr).Sel.Name)
				}
				sites[format+" | "+strings.Join(ctors, " ")] = true
				return true
			})
		}
	}
	if len(sites) == 0 {
		t.Fatal("found no tracef sites: is the test running in the package directory?")
	}
	return sites
}
