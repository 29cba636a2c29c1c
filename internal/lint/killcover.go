package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// KillCover enforces that the fault-injection surface stays exercised:
// every kill-point constant (the protocol stages a chaos scenario may
// crash at) and every boolean Config flag (the ablation switches of §4–§6)
// must be referenced by name from at least one _test.go file somewhere in
// the module. A kill-point nobody kills at, or a flag nobody flips in a
// test, is dead fault-injection surface — the exact rot this repo's
// invariant-first methodology exists to prevent.
type KillCover struct {
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
	// identifier names that mark it as exercised (any one counts). Every
	// kind must be referenced from at least one SHARDED test file — a test
	// file that also references one of ShardMarkers — so the fault plane's
	// sharded composition cannot silently lose coverage while the
	// one-shard tests keep it green.
	ChaosKinds map[string][]string
	// ShardMarkers are the identifiers whose presence makes a test file
	// sharded (e.g. Shards, ShardParallel).
	ShardMarkers []string
}

func (KillCover) Name() string { return "killcover" }
func (KillCover) Doc() string {
	return "every kill-point constant and bool Config flag is referenced from at least one test"
}

func (kc KillCover) Run(p *Pass) {
	if p.Pkg.ImportPath != kc.Pkg || p.Pkg.Types == nil {
		return
	}
	refs := moduleTestIdents(p.Mod)
	scope := p.Pkg.Types.Scope()

	// Kill-point constants: package-level consts whose type is ConstType.
	var consts []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Name() != kc.ConstType || named.Obj().Pkg() != p.Pkg.Types {
			continue
		}
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Pos() < consts[j].Pos() })
	for _, c := range consts {
		if !refs[c.Name()] {
			p.Reportf(c.Pos(), "kill-point %s is not referenced by any test: no chaos scenario crashes at this protocol stage", c.Name())
		}
	}

	// Chaos fault kinds: each must be referenced from a sharded test file.
	// Diagnostics anchor at the ConstType declaration — the kill-point type
	// is the root of the fault-injection surface this rule guards.
	if len(kc.ChaosKinds) > 0 {
		sharded := shardedTestIdents(p.Mod, kc.ShardMarkers)
		var kinds []string
		for kind := range kc.ChaosKinds {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		anchor := scope.Lookup(kc.ConstType)
		for _, kind := range kinds {
			ids := kc.ChaosKinds[kind]
			hit := false
			for _, id := range ids {
				if sharded[id] {
					hit = true
					break
				}
			}
			if !hit && anchor != nil {
				p.Reportf(anchor.Pos(),
					"chaos fault kind %q (%s) is not referenced by any sharded test (one referencing %s): the sharded fault plane lost coverage",
					kind, strings.Join(ids, "/"), strings.Join(kc.ShardMarkers, "/"))
			}
		}
	}

	// Config ablation flags: exported bool fields of ConfigType.
	if tn, ok := scope.Lookup(kc.ConfigType).(*types.TypeName); ok {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				basic, ok := f.Type().(*types.Basic)
				if !ok || basic.Kind() != types.Bool || !f.Exported() {
					continue
				}
				if !refs[f.Name()] {
					p.Reportf(f.Pos(), "%s flag %s is not referenced by any test: the ablation it selects is unmeasured", kc.ConfigType, f.Name())
				}
			}
		}
	}
}

// moduleTestIdents collects every identifier name appearing in any
// _test.go file of the module — a deliberately coarse "referenced" notion
// (parse-only ASTs, no types for test files), which is exactly enough to
// prove a named constant or field shows up in test code.
func moduleTestIdents(mod *Module) map[string]bool {
	out := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					out[id.Name] = true
				}
				return true
			})
		}
	}
	return out
}

// shardedTestIdents collects the identifier union over the module's
// SHARDED test files only: those whose own identifiers include at least
// one of the marker names. The same coarse parse-only notion as
// moduleTestIdents, scoped to the files that exercise the sharded runtime.
func shardedTestIdents(mod *Module, markers []string) map[string]bool {
	mark := make(map[string]bool, len(markers))
	for _, m := range markers {
		mark[m] = true
	}
	out := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.TestFiles {
			ids := make(map[string]bool)
			sharded := false
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ids[id.Name] = true
					if mark[id.Name] {
						sharded = true
					}
				}
				return true
			})
			if !sharded {
				continue
			}
			for name := range ids {
				out[name] = true
			}
		}
	}
	return out
}
