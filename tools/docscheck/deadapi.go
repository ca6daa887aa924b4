package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// The closed set of reasons an exported internal/ identifier may stay
// without a non-test caller.
const (
	satisfiesInterface = "satisfies an interface defined outside the module"
	referenceImpl      = "reference implementation that tests compare against"
	testSupport        = "test support imported by other packages' tests"
)

// deadAPIAllowlist names, as package.Name or package.Type.Method, every
// exported internal/ identifier that checkDeadAPI lets stand unreferenced.
var deadAPIAllowlist = map[string]string{
	"trace.SpanData.MarshalJSON":   satisfiesInterface, // encoding/json.Marshaler
	"trace.SpanData.UnmarshalJSON": satisfiesInterface, // encoding/json.Unmarshaler
	"transport.NetError.Unwrap":    satisfiesInterface, // errors.Is / errors.As
	"kernels.GemmNaive":            referenceImpl,
	"training.NewNesterov":         referenceImpl, // fused_test.go
	"training.NewAdaGrad":          referenceImpl, // fused_test.go
	"training.NewRMSProp":          referenceImpl, // fused_test.go
	"tensor.AllClose":              testSupport,
	"tensor.Tensor.HasNaN":         testSupport,
	"trace.VerifyTree":             testSupport,
	"graph.Model.FindNode":         testSupport,
}

// apiDecl is one exported top-level declaration under internal/.
type apiDecl struct {
	key   string // package.Name or package.Type.Method
	name  string
	pos   token.Position
	group *ast.GenDecl // the iota const group the name belongs to, if any
}

// checkDeadAPI reports every exported identifier declared in non-test Go
// under root/internal whose name no non-test Go file under root uses
// outside a declaration. The scan goes by name, not by type: a use of
// any identifier spelled the same keeps a declaration live, so it finds
// API nothing can be calling. Members of one iota const group count as
// one identifier. Entries of allow are exempt; an entry that is no longer
// declared, or is referenced after all, is reported as stale.
func checkDeadAPI(root string, allow map[string]string) []string {
	fset := token.NewFileSet()
	uses := make(map[string]int)
	var decls []apiDecl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[n] = true
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		rel, _ := filepath.Rel(root, path)
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			decls = append(decls, exportedDecls(fset, file)...)
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("docscheck: scanning %s: %v", root, err)}
	}

	liveGroup := make(map[*ast.GenDecl]bool)
	for _, d := range decls {
		if d.group != nil && uses[d.name] > 0 {
			liveGroup[d.group] = true
		}
	}
	var problems []string
	seen := make(map[string]bool)
	for _, d := range decls {
		seen[d.key] = true
		live := uses[d.name] > 0 || liveGroup[d.group]
		if _, ok := allow[d.key]; ok {
			if live {
				problems = append(problems, fmt.Sprintf("%s: allowlisted %s is referenced; drop it from the allowlist", d.pos, d.key))
			}
			continue
		}
		if !live {
			problems = append(problems, fmt.Sprintf("%s: exported %s has no non-test reference outside its declaration", d.pos, d.key))
		}
	}
	var stale []string
	for key := range allow {
		if !seen[key] {
			stale = append(stale, fmt.Sprintf("docscheck: allowlisted %s is not declared under internal/", key))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// exportedDecls lists the exported top-level declarations of file.
func exportedDecls(fset *token.FileSet, file *ast.File) []apiDecl {
	pkg := file.Name.Name
	var out []apiDecl
	add := func(id *ast.Ident, key string, group *ast.GenDecl) {
		if id.IsExported() {
			out = append(out, apiDecl{key: key, name: id.Name, pos: fset.Position(id.Pos()), group: group})
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				key = pkg + "." + recvName(d.Recv) + "." + d.Name.Name
			}
			add(d.Name, key, nil)
		case *ast.GenDecl:
			var group *ast.GenDecl
			if d.Tok == token.CONST && usesIota(d) {
				group = d
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name, nil)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, pkg+"."+n.Name, group)
					}
				}
			}
		}
	}
	return out
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

// recvName returns the type name of a method receiver.
func recvName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr: // generic receiver T[P]
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
