package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Inventory checks what the code says about its tests, from one walk of the
// module's _test.go files:
//
//   - every //demos:hotpath line cites a dynamic guard (a
//     TestXxx/BenchmarkXxx/FuzzXxx function), and every guard it cites is
//     defined in some _test.go file: an annotation whose benchmark was
//     deleted is a zero-alloc promise nobody measures;
//   - every kill-point constant and every exported bool Config flag is
//     referenced from some _test.go file: a kill-point nobody crashes at, or
//     an ablation flag nobody flips, is dead fault-injection surface;
//   - every chaos fault kind is referenced from a sharded test file (one
//     that also names a shard marker), so the sharded fault plane cannot
//     lose coverage while the one-shard tests stay green.
//
// "Referenced" is deliberately coarse: an identifier of that name appears in
// a test file, which is parsed but never type-checked. The rule is
// module-global and runs once, at the package Pkg.
type Inventory struct {
	// Pkg is the import path of the package declaring both types
	// (demosmp/internal/kernel).
	Pkg string
	// ConstType is the named type whose package-level constants must be
	// test-referenced (KillPoint).
	ConstType string
	// ConfigType is the struct whose exported bool fields must be
	// test-referenced (Config).
	ConfigType string
	// ChaosKinds maps each fault kind the chaos injector can drive to the
	// identifier names that mark it as exercised (any one counts).
	ChaosKinds map[string][]string
	// ShardMarkers are the identifiers whose presence makes a test file
	// sharded (e.g. Shards, ShardParallel).
	ShardMarkers []string
}

func (Inventory) Name() string { return "inventory" }
func (Inventory) Doc() string {
	return "//demos:hotpath cites a live guard; kill-points, bool Config flags and chaos kinds are test-referenced"
}

// guardNameRE matches go-test entry points cited in annotation text. The
// character after the prefix must be non-lowercase, mirroring the go test
// harness rule, so prose words like "Tests" or "Benchmarking" don't match.
var guardNameRE = regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

func (inv Inventory) Run(p *Pass) {
	if p.Pkg.ImportPath != inv.Pkg || p.Pkg.Types == nil {
		return
	}
	// The one walk: every identifier of every test file, those of the
	// sharded files, and the guard functions defined.
	refs, sharded, guards := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, pkg := range p.Mod.Pkgs {
		for _, f := range pkg.TestFiles {
			ids := make(map[string]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ids[id.Name] = true
				}
				return true
			})
			isSharded := slices.ContainsFunc(inv.ShardMarkers, func(m string) bool { return ids[m] })
			for name := range ids {
				refs[name] = true
				sharded[name] = sharded[name] || isSharded
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && guardNameRE.MatchString(fd.Name.Name) {
					guards[fd.Name.Name] = true
				}
			}
		}
	}
	inv.hotpathGuards(p, guards)

	// Kill-point constants: package-level consts whose type is ConstType.
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || refs[name] {
			continue
		}
		if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == inv.ConstType && named.Obj().Pkg() == p.Pkg.Types {
			p.Reportf(c.Pos(), "kill-point %s is not referenced by any test: no chaos scenario crashes at this protocol stage", name)
		}
	}

	// Chaos fault kinds, anchored at the ConstType declaration: the
	// kill-point type is the root of the fault-injection surface.
	if anchor := scope.Lookup(inv.ConstType); anchor != nil {
		kinds := make([]string, 0, len(inv.ChaosKinds))
		for kind := range inv.ChaosKinds {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			ids := inv.ChaosKinds[kind]
			if !slices.ContainsFunc(ids, func(id string) bool { return sharded[id] }) {
				p.Reportf(anchor.Pos(),
					"chaos fault kind %q (%s) is not referenced by any sharded test (one referencing %s): the sharded fault plane lost coverage",
					kind, strings.Join(ids, "/"), strings.Join(inv.ShardMarkers, "/"))
			}
		}
	}

	// Config ablation flags: exported bool fields of ConfigType.
	if tn, ok := scope.Lookup(inv.ConfigType).(*types.TypeName); ok {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if basic, ok := f.Type().(*types.Basic); ok && basic.Kind() == types.Bool && f.Exported() && !refs[f.Name()] {
					p.Reportf(f.Pos(), "%s flag %s is not referenced by any test: the ablation it selects is unmeasured", inv.ConfigType, f.Name())
				}
			}
		}
	}
}

// hotpathGuards checks every //demos:hotpath line of the module against the
// guard functions its test files define.
func (Inventory) hotpathGuards(p *Pass, guards map[string]bool) {
	for _, pkg := range p.Mod.Pkgs {
		for _, fd := range funcDecls(pkg) {
			if !hasDirective(fd.Doc, "hotpath") {
				continue
			}
			for _, c := range fd.Doc.List {
				if !strings.HasPrefix(c.Text, "//demos:hotpath") {
					continue
				}
				names := guardNameRE.FindAllString(c.Text, -1)
				if len(names) == 0 {
					p.Reportf(c.Pos(), "//demos:hotpath on %s names no dynamic guard: cite the Test/Benchmark/Fuzz function that measures it", fd.Name.Name)
				}
				for _, g := range names {
					if !guards[g] {
						p.Reportf(c.Pos(), "//demos:hotpath on %s cites guard %s, which is not defined in any _test.go of the module", fd.Name.Name, g)
					}
				}
			}
		}
	}
}
