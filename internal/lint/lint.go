// Package lint is demoslint: a stdlib-only static-analysis suite that
// machine-checks the simulator's project-specific invariants — determinism
// (all randomness through sim.Engine.Rand, no ambient clocks or
// environment), map-iteration order (nothing order-sensitive may be driven
// by Go's randomized map ranging), the DEMOS/MP layering DAG, the
// //demos:hotpath zero-allocation contract, wire encoder/decoder/fuzz
// pairing in internal/msg, the pooled-envelope ownership discipline, the
// test references the code promises (guards, kill-points, flags, fault
// kinds), and exported surface that nothing outside tests uses.
//
// The suite is built entirely on go/parser, go/ast, go/types and
// go/importer, preserving the repository's zero-external-dependency rule.
// See DESIGN.md §8 ("Machine-checked invariants") for the rule catalogue
// and cmd/demoslint for the command-line driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, renderable as "file:line: [rule] message".
// Path is relative to the module root so golden files and CI output are
// machine-independent.
type Diagnostic struct {
	Path string
	Line int
	Col  int
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Path, d.Line, d.Rule, d.Msg)
}

// Analyzer is one demoslint rule. Run is called once per package. Doc is
// a one-line description for `demoslint -rules` and DESIGN.md §8.
type Analyzer interface {
	Name() string
	Doc() string
	Run(*Pass)
}

// Pass gives an analyzer one package plus a report sink. A nil Types/Info
// (test-only package) never happens for Files — the loader type-checks all
// non-test syntax.
type Pass struct {
	Mod  *Module
	Pkg  *Package
	rule string
	sink *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	*p.sink = append(*p.sink, Diagnostic{
		Path: relPath(p.Mod.Root, position.Filename),
		Line: position.Line,
		Col:  position.Column,
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

func relPath(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// Run executes every analyzer over every package of mod and returns the
// findings sorted by position. There is no per-line suppression: a rule
// that must tolerate a site takes a configuration table (see
// Determinism.Exempt in demos.go), so every exception is reviewed where the
// rule is configured.
func Run(mod *Module, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range mod.Pkgs {
			a.Run(&Pass{Mod: mod, Pkg: pkg, rule: a.Name(), sink: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return diags
}

// hasDirective reports whether a doc comment group carries the given
// //demos:<name> marker (e.g. "hotpath").
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//demos:" + name
	for _, c := range doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// funcDecls returns the function declarations of a package's non-test
// files that have a body.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
