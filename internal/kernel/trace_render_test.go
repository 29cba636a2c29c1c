package kernel

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// Typed sample arguments for each kind: the values a site's argument
// constructor is built from, and the values fmt.Sprintf is handed. The ints
// include both ends of the int32 range an ArgInt holds.
var (
	samplePIDs     = []addr.ProcessID{{Creator: 3, Local: 17}, {Creator: 65535, Local: 65535}, addr.KernelPID(7)}
	sampleMachines = []addr.MachineID{12, 1, 65535}
	sampleInts     = []int{4096, math.MinInt32, 0, math.MaxInt32}
	sampleStrs     = []string{"100% done\ttab %v", "", "swappable"}
)

// kernelSites is every site the kernel declares, as it stands in
// tracesites.go, in declaration order (the registry's id order). It pins
// each site's text: editing a category, event, format or kind list, or
// adding or removing a site, fails TestDeferredTraceRendersAsBefore until
// the row here changes with it.
var kernelSites = []struct {
	cat           trace.Category
	event, format string
	kinds         string
}{
	// Process lifecycle.
	{trace.CatProc, "spawn", "%v kind=%s image=%dB links=%d", "ArgPID ArgStr ArgInt ArgInt"},
	{trace.CatProc, "exit", "%v code=%d", "ArgPID ArgInt"},
	{trace.CatProc, "crash", "%v: %s", "ArgPID ArgStr"},
	{trace.CatProc, "suspend", "%v", "ArgPID"},
	{trace.CatProc, "resume", "%v", "ArgPID"},
	{trace.CatProc, "create-failed", "%s", "ArgStr"},
	{trace.CatProc, "swapped-out", "%v: %d pages under memory pressure", "ArgPID ArgInt"},
	{trace.CatProc, "restart", "%v back up (restart %d)", "ArgMachine ArgInt"},
	{trace.CatProc, "revive-failed", "%v: %s", "ArgPID ArgStr"},
	{trace.CatConsole, "print", "%v: %s", "ArgPID ArgStr"},
	// Migration: the eight steps of Figure 3-1 and their failures.
	{trace.CatMigrate, "step1-remove-from-execution", "%v was %v", "ArgPID ArgStr"},
	{trace.CatMigrate, "step2-ask-destination", "%v -> %v (program=%dB resident=%dB swappable=%dB)", "ArgPID ArgMachine ArgInt ArgInt ArgInt"},
	{trace.CatMigrate, "accepted", "%v by %v", "ArgPID ArgMachine"},
	{trace.CatMigrate, "step3-allocate-state", "%v from %v (reserving %dB)", "ArgPID ArgMachine ArgInt"},
	{trace.CatMigrate, "step4-transfer-state", "%v pull %v", "ArgPID ArgStr"},
	{trace.CatMigrate, "step5-transfer-program", "%v pull %v", "ArgPID ArgStr"},
	{trace.CatData, "stream-region", "%v %v: %dB in %d packets -> %v", "ArgPID ArgStr ArgInt ArgInt ArgMachine"},
	{trace.CatMigrate, "step6-forward-pending", "%v: %d queued messages to %v", "ArgPID ArgInt ArgMachine"},
	{trace.CatMigrate, "step7-cleanup-forwarding-address", "%v: forwarder -> %v (%d bytes)", "ArgPID ArgMachine ArgInt"},
	{trace.CatMigrate, "step8-restart", "%v restarted as %v (%d pending had been forwarded)", "ArgPID ArgStr ArgInt"},
	{trace.CatMigrate, "migrate-aborted", "%v: %s", "ArgPID ArgStr"},
	{trace.CatMigrate, "refused", "%v: %s", "ArgPID ArgStr"},
	{trace.CatMigrate, "incoming-failed", "%v: %s", "ArgPID ArgStr"},
	{trace.CatMigrate, "checkpoint", "%v: %s", "ArgPID ArgStr"},
	{trace.CatMigrate, "revive", "%v as %v from %dB checkpoint", "ArgPID ArgStr ArgInt"},
	// Move-data facility.
	{trace.CatData, "stray-packet", "xfer=%d seq=%d", "ArgInt ArgInt"},
	{trace.CatData, "write-fault", "%s", "ArgStr"},
	{trace.CatData, "read-fault", "%s", "ArgStr"},
	// Forwarding (Figure 4-1) and the search for a lost process.
	{trace.CatForward, "forward", "%v for %v -> %v (hop %d)", "ArgStr ArgPID ArgMachine ArgInt"},
	{trace.CatForward, "bounce", "%v for %v returned to %v", "ArgStr ArgPID ArgMachine"},
	{trace.CatForward, "forwarder-reclaimed", "%v", "ArgPID"},
	{trace.CatForward, "search-reroute", "%v for %v -> creator %v", "ArgStr ArgPID ArgMachine"},
	{trace.CatForward, "search-broadcast", "%v", "ArgPID"},
	{trace.CatForward, "search-timeout", "%v: %d held messages dead-lettered", "ArgPID ArgInt"},
	{trace.CatForward, "search-reply", "%v is at %v (asked by %v)", "ArgPID ArgMachine ArgMachine"},
	// Link update (Figure 5-1).
	{trace.CatLinkUpdate, "linkupdate-sent", "to kernel of %v: %v is now on %v", "ArgPID ArgPID ArgMachine"},
	{trace.CatLinkUpdate, "linkupdate-applied", "%d links of %v now point at %v on %v", "ArgInt ArgPID ArgPID ArgMachine"},
	{trace.CatLinkUpdate, "linkupdate-bad", "%s", "ArgStr"},
	{trace.CatLinkUpdate, "eager-applied", "%d links now point at %v on %v", "ArgInt ArgPID ArgMachine"},
	// Delivery.
	{trace.CatDeliver, "dead-letter", "%v for %v", "ArgStr ArgPID"},
	{trace.CatDeliver, "unknown-control", "%s", "ArgStr"},
	{trace.CatDeliver, "carried-link-dropped", "%v: %s", "ArgPID ArgStr"},
}

// TestDeferredTraceRendersAsBefore walks every site the kernel registers,
// registering none itself. The registry holds exactly kernelSites' rows, in
// order, so no site's text changes unseen. Each site's kinds match its
// format's verbs (an ArgInt a %d, a PID or Machine a %v, the one ArgStr a
// %s or %v), and from typed sample arguments built the way a call site
// builds them the record renders exactly what fmt.Sprintf renders from the
// values themselves. The source scan then holds every k.trace call to its
// site: a declared package-level site whose kinds match the call's
// constructors.
func TestDeferredTraceRendersAsBefore(t *testing.T) {
	fset, files := parseKernel(t)
	declared := siteDecls(t, files)
	tr := trace.New(func() sim.Time { return 0 }, 0)
	registered := trace.Sites()
	if len(registered) != len(kernelSites) {
		t.Errorf("%d sites registered, %d in kernelSites", len(registered), len(kernelSites))
	}
	for i, s := range registered[:min(len(registered), len(kernelSites))] {
		if w := kernelSites[i]; s.Cat() != w.cat || s.Event() != w.event || s.Format() != w.format || kindNames(s.Kinds()) != w.kinds {
			t.Errorf("site %d is %v %q %q %s; kernelSites has %v %q %q %s", i, s.Cat(), s.Event(), s.Format(), kindNames(s.Kinds()), w.cat, w.event, w.format, w.kinds)
		}
	}
	for _, s := range registered {
		format, kinds := s.Format(), s.Kinds()
		key := s.Event() + " | " + format
		if d, ok := declared[key]; !ok {
			t.Errorf("%s: registered, but no package-level trace.NewSite declares it", key)
		} else if got := kindNames(kinds); got != strings.Join(d.kinds, " ") {
			t.Errorf("%s: registered kinds %s, declared %s", key, got, strings.Join(d.kinds, " "))
		}
		verbs := formatVerbs(format)
		if len(verbs) != len(kinds) {
			t.Errorf("%s: %d verbs for %d arguments", key, len(verbs), len(kinds))
			continue
		}
		for i, k := range kinds {
			if ok := map[trace.ArgKind]string{trace.ArgInt: "d", trace.ArgPID: "v", trace.ArgMachine: "v", trace.ArgStr: "sv"}[k]; !strings.ContainsRune(ok, verbs[i]) {
				t.Errorf("%s: argument %d is %s under %%%c", key, i, kindNames(kinds[i:i+1]), verbs[i])
			}
		}
		for n := 0; n < 4; n++ {
			var typed []any
			var vals []trace.Val
			str := ""
			for i, k := range kinds {
				switch j := n + i; k {
				case trace.ArgPID:
					p := samplePIDs[j%len(samplePIDs)]
					typed, vals = append(typed, p), append(vals, trace.PID(p))
				case trace.ArgMachine:
					m := sampleMachines[j%len(sampleMachines)]
					typed, vals = append(typed, m), append(vals, trace.Machine(m))
				case trace.ArgInt:
					v := sampleInts[j%len(sampleInts)]
					typed, vals = append(typed, v), append(vals, trace.Int(v))
				case trace.ArgStr:
					str = sampleStrs[j%len(sampleStrs)]
					typed = append(typed, str)
				}
			}
			tr.Log(12, s, str, vals...)
			recs := tr.Records()
			r := recs[len(recs)-1]
			if want := fmt.Sprintf(format, typed...); r.Detail() != want {
				t.Errorf("%s: record renders %q, fmt.Sprintf %q", key, r.Detail(), want)
			}
			if r.Event() != s.Event() || r.Cat() != s.Cat() {
				t.Errorf("%s: record reads as %v/%s", key, r.Cat(), r.Event())
			}
		}
	}
	if len(declared) != len(trace.Sites()) {
		t.Errorf("%d sites declared, %d registered", len(declared), len(trace.Sites()))
	}

	for _, call := range traceCalls(t, fset, files, declared) {
		for _, site := range call.sites {
			d := declared[site]
			var want []string
			hasStr := false
			for _, k := range d.kinds {
				if k == "ArgStr" {
					hasStr = true
				} else {
					want = append(want, k)
				}
			}
			if got := strings.Join(call.ctors, " "); got != strings.Join(want, " ") {
				t.Errorf("%s: arguments %s, site %s (%s) takes %s", call.pos, got, d.name, site, strings.Join(want, " "))
			}
			if call.str != hasStr {
				t.Errorf("%s: passes a string: %v; site %s has an ArgStr: %v", call.pos, call.str, d.name, hasStr)
			}
		}
	}
}

func kindNames(kinds []trace.ArgKind) string {
	names := map[trace.ArgKind]string{trace.ArgInt: "ArgInt", trace.ArgPID: "ArgPID", trace.ArgMachine: "ArgMachine", trace.ArgStr: "ArgStr"}
	var out []string
	for _, k := range kinds {
		out = append(out, names[k])
	}
	return strings.Join(out, " ")
}

// formatVerbs returns the verb letter of each directive in format, skipping
// %%.
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] != '%' {
			verbs = append(verbs, rune(format[i]))
		}
	}
	return verbs
}

// siteDecl is a package-level trace.NewSite declaration, read from source.
type siteDecl struct {
	name  string
	kinds []string // the kind constants, e.g. ArgPID
}

// traceCall is one k.trace call: the sites its first argument can hold
// (keys of siteDecls), whether it passes a string, and its constructors.
type traceCall struct {
	pos   token.Position
	sites []string
	str   bool
	ctors []string // as site kinds: ArgPID, ArgMachine, ArgInt
}

func parseKernel(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return fset, files
}

// siteDecls returns the package's site declarations keyed by
// "event | format".
func siteDecls(t *testing.T, files []*ast.File) map[string]siteDecl {
	t.Helper()
	out := map[string]siteDecl{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, v := range vs.Values {
					call, ok := v.(*ast.CallExpr)
					if !ok || !isSel(call.Fun, "trace", "NewSite") {
						continue
					}
					event, _ := strconv.Unquote(call.Args[1].(*ast.BasicLit).Value)
					format, _ := strconv.Unquote(call.Args[2].(*ast.BasicLit).Value)
					d := siteDecl{name: vs.Names[i].Name}
					for _, k := range call.Args[3:] {
						d.kinds = append(d.kinds, k.(*ast.SelectorExpr).Sel.Name)
					}
					out[event+" | "+format] = d
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("found no trace.NewSite declarations: is the test running in the package directory?")
	}
	return out
}

func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// traceCalls returns every k.trace call in the package's source. A call
// whose site is a variable resolves to the sites assigned to it in its
// function, or, for a parameter, the sites every call of the function
// passes in its place.
func traceCalls(t *testing.T, fset *token.FileSet, files []*ast.File, declared map[string]siteDecl) []traceCall {
	t.Helper()
	byName := map[string]string{}
	for key, d := range declared {
		byName[d.name] = key
	}
	siteOf := func(e ast.Expr) (string, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return "", false
		}
		key, ok := byName[id.Name]
		return key, ok
	}
	var calls []*ast.CallExpr
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				calls = append(calls, c)
			}
			return true
		})
	}
	var out []traceCall
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "trace" {
					return true
				}
				tc := traceCall{pos: fset.Position(call.Pos())}
				if key, ok := siteOf(call.Args[0]); ok {
					tc.sites = []string{key}
				} else if id, ok := call.Args[0].(*ast.Ident); ok {
					tc.sites = flowsInto(fd, id.Name, calls, siteOf)
				}
				if len(tc.sites) == 0 {
					t.Errorf("%s: k.trace's site is not a package-level site", tc.pos)
					return true
				}
				lit, ok := call.Args[1].(*ast.BasicLit)
				tc.str = !ok || lit.Value != `""`
				for _, a := range call.Args[2:] {
					c, ok := a.(*ast.CallExpr)
					var ctor *ast.SelectorExpr
					if ok {
						ctor, ok = c.Fun.(*ast.SelectorExpr)
					}
					if !ok || !isSel(ctor, "trace", ctor.Sel.Name) {
						t.Errorf("%s: k.trace argument is not a trace constructor call", fset.Position(a.Pos()))
						continue
					}
					tc.ctors = append(tc.ctors, "Arg"+ctor.Sel.Name)
				}
				out = append(out, tc)
				return true
			})
		}
	}
	if len(out) == 0 {
		t.Fatal("found no k.trace calls")
	}
	return out
}

// flowsInto returns the sites fd assigns to the variable name, or, if name
// is one of fd's parameters, the sites calls of fd pass for it.
func flowsInto(fd *ast.FuncDecl, name string, calls []*ast.CallExpr, siteOf func(ast.Expr) (string, bool)) []string {
	var sites []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name == name {
					if key, ok := siteOf(as.Rhs[i]); ok {
						sites = append(sites, key)
					}
				}
			}
		}
		return true
	})
	j := 0
	for _, field := range fd.Type.Params.List {
		for _, pn := range field.Names {
			if pn.Name == name {
				for _, c := range calls {
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == fd.Name.Name && j < len(c.Args) {
						if key, ok := siteOf(c.Args[j]); ok {
							sites = append(sites, key)
						}
					}
				}
			}
			j++
		}
	}
	return sites
}
