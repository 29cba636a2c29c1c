package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// DeadCode reports exported surface that nothing but tests uses: an
// exported package-level identifier, or an exported method, declared in a
// non-test file of a package under Prefix that no non-test file of the
// module references. Surface only tests call is still code to read, keep
// formatted and carry through every refactor; the fix is to delete it,
// unexport it, or — when only its own package's tests need it — move it to
// that package's export_test.go.
//
// Four other things count as a use: a reference from a file under one of
// Consumers (directories the loader skips, parsed here as syntax only:
// qualified identifiers resolve through the file's imports, methods match
// by name); a method that implements an interface the module can see (it is
// called through the interface); the AppendTo/Encode methods and Decode<T>
// functions of the Wire package, which wirepair keeps together; and
// anything in a Scaffold package (test helpers by design). What another
// package's tests need and cannot get otherwise is listed in Keep.
type DeadCode struct {
	Prefix    string          // import-path prefix of the packages checked
	Consumers []string        // module-relative directories outside the loader's view
	Wire      string          // the wire package whose encode/decode triples are exempt
	Scaffold  map[string]bool // test-scaffolding packages, exempt
	Keep      map[string]bool // "importpath.Name" or "importpath.Type.Method", exempt
}

func (DeadCode) Name() string { return "deadcode" }
func (DeadCode) Doc() string {
	return "exported identifiers and methods under internal/ have a non-test use (or implement an interface)"
}

func (d DeadCode) Run(p *Pass) {
	pkg := p.Pkg
	if pkg.Types == nil || !strings.HasPrefix(pkg.ImportPath, d.Prefix) || d.Scaffold[pkg.ImportPath] {
		return
	}
	var cands []*ast.Ident
	recvs := make(map[*ast.Ident]bool) // a receiver names its type but does not use it
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Name.IsExported() && !d.wireTriple(pkg, decl) {
					cands = append(cands, decl.Name)
				}
				if decl.Recv != nil {
					ast.Inspect(decl.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						cands = append(cands, s.Name)
					case *ast.ValueSpec:
						cands = append(cands, s.Names...)
					}
				}
			}
		}
	}

	used := make(map[types.Object]bool)
	for _, q := range p.Mod.Pkgs {
		if q.Info == nil {
			continue
		}
		for id, obj := range q.Info.Uses {
			if obj.Pkg() == pkg.Types && !recvs[id] {
				used[origin(obj)] = true
			}
		}
	}

	var refs map[string]bool // consumer references, parsed on first need
	var ifaces []*types.Interface
	for _, id := range cands {
		obj := pkg.Info.Defs[id]
		if !id.IsExported() || obj == nil || used[obj] {
			continue
		}
		name := id.Name
		var recv *types.Named
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			recv = recvNamed(fn)
			name = recv.Obj().Name() + "." + name
			if ifaces == nil {
				ifaces = moduleInterfaces(p.Mod)
			}
			if implementsAny(recv, id.Name, ifaces) {
				continue
			}
		}
		if refs == nil {
			refs = consumerRefs(p.Mod.Root, d.Consumers)
		}
		if refs[pkg.ImportPath+"."+id.Name] || (recv != nil && refs[id.Name]) || d.Keep[pkg.ImportPath+"."+name] {
			continue
		}
		p.Reportf(id.Pos(), "%s is exported but nothing outside tests uses it: delete it, unexport it, or move it to export_test.go", name)
	}
}

// wireTriple reports an AppendTo/Encode method or a Decode<T> function of
// the wire package (plain Decode pairs with the envelope's Encode).
func (d DeadCode) wireTriple(pkg *Package, fd *ast.FuncDecl) bool {
	if pkg.ImportPath != d.Wire {
		return false
	}
	if fd.Recv != nil {
		return fd.Name.Name == "AppendTo" || fd.Name.Name == "Encode"
	}
	typ, ok := strings.CutPrefix(fd.Name.Name, "Decode")
	return ok && (typ == "" || pkg.Types.Scope().Lookup(typ) != nil)
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// moduleInterfaces collects every non-generic interface the module can
// name: those appearing in its type-checked expressions (anonymous ones
// included), those declared by it or anything it imports, and error.
func moduleInterfaces(mod *Module) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, q := range mod.Pkgs {
		if q.Info == nil {
			continue
		}
		walk(q.Types)
		for _, tv := range q.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// implementsAny reports whether T or *T implements an interface that has
// a method called name.
func implementsAny(t *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// consumerRefs parses every Go file under dirs (relative to root) as syntax
// and returns what it selects: "path.Name" for an identifier qualified by
// an imported package, the bare name for any other selector.
func consumerRefs(root string, dirs []string) map[string]bool {
	refs := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, e os.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil
			}
			imports := make(map[string]string)
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				name := ip[strings.LastIndex(ip, "/")+1:]
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = ip
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						refs[imports[x.Name]+"."+sel.Sel.Name] = true
					} else {
						refs[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
	}
	return refs
}
