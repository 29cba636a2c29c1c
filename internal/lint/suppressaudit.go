package lint

import (
	"go/ast"
	"regexp"
	"strings"
)

// SuppressAudit keeps the //demos:hotpath promises honest: the directive
// line must name at least one dynamic guard (a TestXxx/BenchmarkXxx/FuzzXxx
// function) and every guard it names must still be defined in some
// _test.go file of the module. A hotpath annotation whose benchmark was
// deleted is a zero-alloc promise nobody measures.
type SuppressAudit struct{}

func (SuppressAudit) Name() string { return "suppressaudit" }
func (SuppressAudit) Doc() string {
	return "//demos:hotpath must name a live Test/Benchmark/Fuzz guard"
}

// guardNameRE matches go-test entry points cited in annotation text. The
// character after the prefix must be non-lowercase, mirroring the go test
// harness rule, so prose words like "Tests" or "Benchmarking" don't match.
var guardNameRE = regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

func (SuppressAudit) Run(p *Pass) {
	guards := moduleTestFuncs(p.Mod)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, "hotpath") {
				continue
			}
			for _, c := range fd.Doc.List {
				if !strings.HasPrefix(c.Text, "//demos:hotpath") {
					continue
				}
				names := guardNameRE.FindAllString(c.Text, -1)
				if len(names) == 0 {
					p.Reportf(c.Pos(), "//demos:hotpath on %s names no dynamic guard: cite the Test/Benchmark/Fuzz function that measures it", fd.Name.Name)
					continue
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

// moduleTestFuncs collects the names of all top-level Test/Benchmark/Fuzz
// functions across every _test.go file of the module.
func moduleTestFuncs(mod *Module) map[string]bool {
	out := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.TestFiles {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				if guardNameRE.MatchString(fd.Name.Name) {
					out[fd.Name.Name] = true
				}
			}
		}
	}
	return out
}
