package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// The closed set of reasons an exported identifier in scope may stay
// without a non-test caller.
const (
	satisfiesInterface = "satisfies an interface defined outside the module"
	referenceImpl      = "reference implementation that tests compare against"
	testSupport        = "test support imported by other packages' tests"
)

// deadAPIAllowlist names, as package.Name or package.Type.Member, every
// exported identifier that checkDeadAPI lets stand unreferenced.
var deadAPIAllowlist = map[string]string{
	"transport.NetError.Unwrap": satisfiesInterface, // errors.Is / errors.As
	"kernels.GemmNaive":         referenceImpl,
	"training.NewNesterov":      referenceImpl, // fused_test.go
	"training.NewAdaGrad":       referenceImpl, // fused_test.go
	"training.NewRMSProp":       referenceImpl, // fused_test.go
	"tensor.AllClose":           testSupport,
	"tensor.Tensor.HasNaN":      testSupport,
	"trace.VerifyTree":          testSupport,
	"graph.Model.FindNode":      testSupport,
}

// deadAPIScope lists the top-level directories whose exported API must
// have a non-test caller somewhere in the module.
var deadAPIScope = []string{"internal/", "d500/"}

// apiDecl is one exported member in scope.
type apiDecl struct {
	key  string   // package.Name or package.Type.Member
	decl ast.Node // uses inside it do not count
	pos  token.Position
	live bool
}

// modulePkg is one directory of the module, parsed and type-checked.
type modulePkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// checkDeadAPI type-checks every non-test Go file of the module at root
// and reports each exported package-level func, type, var and const,
// each exported method of a named type and each exported struct field
// declared under internal/ or d500/ that no non-test identifier outside
// its own declaration resolves to. A method also counts as live when a
// type it belongs to, directly or by promotion through embedding,
// implements an interface with a method of that name; the interfaces
// that count are the module's own (named or literal), those declared in
// the standard packages the module imports, and error. Members of one
// iota const group count as one, a field set positionally in an unkeyed
// composite literal is live, and the exported error sentinels of d500 are
// exempt. Entries of allow are exempt too; an entry that is no longer
// declared, or is live after all, is reported as stale.
func checkDeadAPI(root string, allow map[string]string) []string {
	fset, pkgs, err := loadModule(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: loading %s: %v", root, err)}
	}

	decls := make(map[types.Object]*apiDecl)
	groups := make(map[*ast.GenDecl][]types.Object)
	errorType := types.Universe.Lookup("error").Type()
	ifaces := map[*types.Interface]bool{errorType.Underlying().(*types.Interface): true}
	var named []*types.Named

	for _, mp := range pkgs {
		inScope := false
		for _, s := range deadAPIScope {
			inScope = inScope || strings.HasPrefix(mp.dir+"/", s)
		}
		add := func(id *ast.Ident, key string, decl ast.Node) types.Object {
			obj := mp.info.Defs[id]
			if inScope && id.IsExported() && obj != nil {
				decls[obj] = &apiDecl{key: mp.pkg.Name() + "." + key, decl: decl, pos: fset.Position(id.Pos())}
			}
			return obj
		}
		for _, file := range mp.files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name, d)
						continue
					}
					add(d.Name, baseIdent(d.Recv.List[0].Type).Name+"."+d.Name.Name, d)
				case *ast.GenDecl:
					enum := d.Tok == token.CONST && usesIota(d)
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									for _, n := range f.Names {
										add(n, s.Name.Name+"."+n.Name, f)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := add(n, n.Name, s)
								if enum {
									groups[d] = append(groups[d], obj)
								}
								if v, ok := obj.(*types.Var); ok && mp.dir == "d500" && types.Identical(v.Type(), errorType) {
									delete(decls, obj)
								}
							}
						}
					}
				}
			}
		}
		for _, obj := range mp.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for _, tv := range mp.info.Types {
			if tv.IsType() {
				if it, ok := tv.Type.Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
		for _, imp := range mp.pkg.Imports() {
			if pkgs[imp.Path()] != nil {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces[it] = true
					}
				}
			}
		}
	}

	// Uses outside the declaration, and fields set positionally.
	for _, mp := range pkgs {
		for expr, tv := range mp.info.Types {
			if lit, ok := expr.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
					if st, ok := tv.Type.Underlying().(*types.Struct); ok {
						for i := range lit.Elts {
							markLive(decls, st.Field(i))
						}
					}
				}
			}
		}
		for id, obj := range mp.info.Uses {
			obj = origin(obj)
			if d := decls[obj]; d != nil && (id.Pos() < d.decl.Pos() || id.Pos() >= d.decl.End()) {
				d.live = true
			}
		}
	}

	// Methods an interface needs, on T or *T or promoted into them.
	for _, n := range named {
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(t)
			if ms.Len() == 0 {
				continue
			}
			for it := range ifaces {
				if it.NumMethods() == 0 || ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						markLive(decls, sel.Obj())
					}
				}
			}
		}
	}

	for _, members := range groups {
		if slices.ContainsFunc(members, func(obj types.Object) bool { return decls[obj] != nil && decls[obj].live }) {
			for _, obj := range members {
				markLive(decls, obj)
			}
		}
	}

	var problems []string
	seen := make(map[string]bool)
	for _, d := range decls {
		seen[d.key] = true
		_, allowed := allow[d.key]
		switch {
		case allowed && d.live:
			problems = append(problems, fmt.Sprintf("%s: allowlisted %s is referenced; drop it from the allowlist", d.pos, d.key))
		case !allowed && !d.live:
			problems = append(problems, fmt.Sprintf("%s: exported %s has no non-test reference outside its declaration", d.pos, d.key))
		}
	}
	for key := range allow {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("docscheck: allowlisted %s is not declared in %s", key, strings.Join(deadAPIScope, " or ")))
		}
	}
	sort.Strings(problems)
	return problems
}

// markLive marks obj live if it is a member in scope.
func markLive(decls map[types.Object]*apiDecl, obj types.Object) {
	if d := decls[origin(obj)]; d != nil {
		d.live = true
	}
}

// origin maps a member of an instantiated generic type or function to
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

// loadModule parses the non-test Go files of the module at root that
// match the default build context, skipping testdata and dot
// directories, and type-checks its packages in import order: module
// packages from this pass, the standard library from source.
func loadModule(root string) (*token.FileSet, map[string]*modulePkg, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, nil, fmt.Errorf("no module line in go.mod")
	}

	fset := token.NewFileSet()
	pkgs := make(map[string]*modulePkg) // by import path
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && p != root) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		importPath := path.Join(module, rel)
		if pkgs[importPath] == nil {
			pkgs[importPath] = &modulePkg{dir: rel}
		}
		pkgs[importPath].files = append(pkgs[importPath].files, file)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	imp := &moduleImporter{fset: fset, pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil)}
	for p := range pkgs {
		if _, err := imp.Import(p); err != nil {
			return nil, nil, err
		}
	}
	return fset, pkgs, nil
}

// moduleImporter type-checks module packages on first import and hands
// everything else to the standard library's source importer.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*modulePkg
	std  types.Importer
}

// Import returns the type-checked package at import path p.
func (m *moduleImporter) Import(p string) (*types.Package, error) {
	mp := m.pkgs[p]
	if mp == nil {
		return m.std.Import(p)
	}
	if mp.info != nil {
		if mp.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return mp.pkg, nil
	}
	mp.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, mp.files, mp.info)
	if err != nil {
		return nil, err
	}
	mp.pkg = pkg
	return pkg, nil
}

// baseIdent returns the type name of a method receiver, T for T, *T and
// generic T[P].
func baseIdent(t ast.Expr) *ast.Ident {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident)
}

// usesIota reports whether a const declaration enumerates with iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
