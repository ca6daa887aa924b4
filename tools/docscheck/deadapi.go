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
	// readOnly marks an untagged struct field: only a read, in any file,
	// makes it live.
	readOnly bool
}

// modulePkg is one directory of the module, parsed and type-checked
// without its tests and, in tests, once more with each test package.
type modulePkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	// tests and xtests are the in-package and external (package x_test)
	// test files; testInfos the uses of the test builds.
	tests, xtests []*ast.File
	testInfos     []*types.Info
}

// checkDeadAPI type-checks the module at root, its tests included, and
// reports each exported package-level func, type, var and const, each
// exported method of a named type and each exported struct field
// declared in a non-test file under internal/ or d500/ that is unused. A
// field without a struct tag is used when some code, tests included,
// reads it; the key of a keyed composite literal and the operand an
// assignment or ++/-- stores to are writes, not reads. Any other member,
// and a tagged field (reflection reads it), is used when a non-test
// identifier outside its declaration resolves to it. A method also
// counts as used when a type it belongs to, directly or by promotion
// through embedding, implements an interface with a method of that name;
// the interfaces that count are the module's own (named or literal),
// those declared in the standard packages the module imports, and error.
// Members of one iota const group count as one, and the exported error
// sentinels of d500 are exempt. Entries of allow are exempt too; an entry
// that is no longer declared, or is used after all, is reported as stale.
func checkDeadAPI(root string, allow map[string]string) []string {
	fset, pkgs, err := loadModule(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: loading %s: %v", root, err)}
	}

	// Members by the position of their name: a test build type-checks a
	// package's files again, into objects of its own.
	decls := make(map[token.Pos]*apiDecl)
	groups := make(map[*ast.GenDecl][]types.Object)
	errorType := types.Universe.Lookup("error").Type()
	ifaces := map[*types.Interface]bool{errorType.Underlying().(*types.Interface): true}
	var named []*types.Named

	for _, mp := range pkgs {
		inScope := false
		for _, s := range deadAPIScope {
			inScope = inScope || strings.HasPrefix(mp.dir+"/", s)
		}
		add := func(id *ast.Ident, key string, decl ast.Node) *apiDecl {
			if !inScope || !id.IsExported() || mp.info.Defs[id] == nil {
				return nil
			}
			d := &apiDecl{key: mp.pkg.Name() + "." + key, decl: decl, pos: fset.Position(id.Pos())}
			decls[id.Pos()] = d
			return d
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
										if d := add(n, s.Name.Name+"."+n.Name, f); d != nil {
											d.readOnly = f.Tag == nil
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, n.Name, s)
								obj := mp.info.Defs[n]
								if enum {
									groups[d] = append(groups[d], obj)
								}
								if v, ok := obj.(*types.Var); ok && mp.dir == "d500" && types.Identical(v.Type(), errorType) {
									delete(decls, n.Pos())
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

	// Reads of untagged fields anywhere; other uses outside tests and the
	// declaration.
	inTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	writes := make(map[*ast.Ident]bool)
	store := func(x ast.Expr) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, mp := range pkgs {
		for _, file := range slices.Concat(mp.files, mp.tests, mp.xtests) {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						store(x)
					}
				case *ast.IncDecStmt:
					store(n.X)
				}
				return true
			})
		}
	}
	for _, mp := range pkgs {
		for _, info := range append([]*types.Info{mp.info}, mp.testInfos...) {
			for id, obj := range info.Uses {
				d := decls[origin(obj).Pos()]
				switch {
				case d == nil:
				case d.readOnly:
					d.live = d.live || !writes[id]
				case !inTest(id.Pos()) && (id.Pos() < d.decl.Pos() || id.Pos() >= d.decl.End()):
					d.live = true
				}
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
		if slices.ContainsFunc(members, func(obj types.Object) bool { return decls[obj.Pos()] != nil && decls[obj.Pos()].live }) {
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
		case !allowed && !d.live && d.readOnly:
			problems = append(problems, fmt.Sprintf("%s: exported %s is never read", d.pos, d.key))
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
func markLive(decls map[token.Pos]*apiDecl, obj types.Object) {
	if d := decls[origin(obj).Pos()]; d != nil {
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

// loadModule parses the Go files of the module at root that match the
// default build context, skipping testdata and dot directories, and
// type-checks its packages in import order: module packages from this
// pass, the standard library from source. Then it type-checks each
// package's tests as go test builds them: the package with its
// in-package test files, and its external test package against that.
// Type errors of a test build are not reported; a test build only adds
// reads.
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
		if !strings.HasSuffix(name, ".go") {
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
		mp := pkgs[importPath]
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			mp.files = append(mp.files, file)
		case strings.HasSuffix(file.Name.Name, "_test"):
			mp.xtests = append(mp.xtests, file)
		default:
			mp.tests = append(mp.tests, file)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	imp := &moduleImporter{fset: fset, pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil)}
	for p, mp := range pkgs {
		if len(mp.files) == 0 {
			continue
		}
		if _, err := imp.Import(p); err != nil {
			return nil, nil, err
		}
	}
	for p, mp := range pkgs {
		self := mp.pkg
		if len(mp.tests) > 0 {
			self = checkTest(imp, fset, p, slices.Concat(mp.files, mp.tests), mp)
		}
		if len(mp.xtests) > 0 {
			withSelf := importerFunc(func(q string) (*types.Package, error) {
				if q == p && self != nil {
					return self, nil
				}
				return imp.Import(q)
			})
			checkTest(withSelf, fset, p+"_test", mp.xtests, mp)
		}
	}
	return fset, pkgs, nil
}

// checkTest type-checks one test build of mp and keeps its uses.
func checkTest(imp types.Importer, fset *token.FileSet, p string, files []*ast.File, mp *modulePkg) *types.Package {
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, _ := conf.Check(p, fset, files, info)
	mp.testInfos = append(mp.testInfos, info)
	return pkg
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import returns the package at path.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
