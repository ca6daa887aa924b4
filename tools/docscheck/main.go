// Command docscheck is the repository's documentation linter, run by the
// CI docs job. It fails (exit 1) on:
//
//  1. broken intra-repository markdown links (fragments are stripped;
//     external http(s)/mailto links are ignored), and Test…, Benchmark…
//     or Fuzz… names a markdown file cites that no func declares; and
//  2. exported identifiers in the public d500/ package missing doc
//     comments — the public API surface must stay fully documented; and
//  3. drift between the canonical metric list (internal/obs/names.go)
//     and the metric reference in docs/operations.md — every canonical
//     series must be documented there, and every d500_* series the doc
//     mentions must exist in code; and
//  4. dead API under internal/ and in the public d500/ package
//     (deadapi.go). The module is type-checked with go/types, tests
//     included, and an exported func, type, var, const, method or tagged
//     struct field is dead when no non-test identifier outside its
//     declaration resolves to it. A struct field without a tag is dead
//     when nothing, tests included, reads it: setting it in a composite
//     literal or assigning to it is not a read. A method an interface
//     needs stays live: one of the module's own interfaces (named, or a
//     literal such as a type assertion's), one declared in a standard
//     package the module imports, or error; the method may be promoted
//     through an embedded type. A used iota group keeps all its members,
//     and d500's exported error sentinels are exempt. Dead API is deleted,
//     unexported, or allowlisted for one of a closed set of reasons.
//
// Usage: go run ./tools/docscheck [repo-root]   (default ".")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"deep500/internal/obs"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkMarkdown(root)...)
	problems = append(problems, checkDocComments(filepath.Join(root, "d500"))...)
	problems = append(problems, checkMetricsDocs(filepath.Join(root, "docs", "operations.md"))...)
	problems = append(problems, checkDeadAPI(root, deadAPIAllowlist)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links, d500 doc comments, metric reference, API callers and cited tests OK")
}

// mdLink matches [text](target); images ![alt](target) share the suffix.
// testName matches a test, benchmark or fuzz name; goFunc a declared one.
var (
	mdLink   = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	goFunc   = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?(\w+)`)
)

// checkMarkdown checks every markdown file under root but .git and testdata:
// each relative link must resolve, and each test name cited must be a func
// the walked Go files declare, except in root files other than README.md and
// ARCHITECTURE.md, which record history, plans and references.
func checkMarkdown(root string) []string {
	var problems []string
	declared := make(map[string]bool)
	var cited [][2]string // markdown path, test name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == ".git" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(name)
		if ext != ".md" && ext != ".go" {
			return nil
		}
		data, err := os.ReadFile(path)
		switch {
		case err != nil:
			return err
		case ext == ".go":
			for _, m := range goFunc.FindAllStringSubmatch(string(data), -1) {
				declared[m[1]] = true
			}
			return nil
		case filepath.Dir(path) != filepath.Clean(root) || name == "README.md" || name == "ARCHITECTURE.md":
			for _, test := range testName.FindAllString(string(data), -1) {
				cited = append(cited, [2]string{path, test})
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // drop fragment
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	for _, c := range cited {
		if !declared[c[1]] {
			declared[c[1]] = true // report each name once
			problems = append(problems, fmt.Sprintf("%s: cites %s, which no func in the module declares", c[0], c[1]))
		}
	}
	return problems
}

// checkDocComments parses every non-test Go file in dir and reports
// exported top-level declarations (functions, methods, types, and the
// first name of var/const specs) without a doc comment. Grouped specs
// inherit the group's doc, matching godoc behaviour.
func checkDocComments(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: parsing %s: %v", dir, err)}
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					// Methods on unexported receivers stay internal.
					if d.Recv != nil && !exportedRecv(d.Recv) {
						continue
					}
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(s.Pos(), strings.ToLower(d.Tok.String()), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// metricToken matches a d500_* metric series name in documentation prose,
// tables and PromQL snippets.
var metricToken = regexp.MustCompile(`\bd500_[a-z0-9_]+\b`)

// checkMetricsDocs enforces two-way conformance between the canonical
// metric list (internal/obs.Names) and the metric reference document:
// every canonical series must be mentioned, and every d500_* series the
// document mentions (after stripping the derived _bucket/_sum/_count
// histogram suffixes) must be canonical. This is the docs-side half of
// the invariant; d500's TestMetricsCoversCanonicalNames is the code side.
func checkMetricsDocs(docPath string) []string {
	data, err := os.ReadFile(docPath)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: reading %s: %v", docPath, err)}
	}
	doc := string(data)

	canonical := make(map[string]bool)
	for _, name := range obs.Names() {
		canonical[name] = true
	}

	var problems []string
	for _, name := range obs.Names() {
		if !strings.Contains(doc, name) {
			problems = append(problems, fmt.Sprintf("%s: canonical metric %s is not documented", docPath, name))
		}
	}
	seen := make(map[string]bool)
	for _, tok := range metricToken.FindAllString(doc, -1) {
		base := tok
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !canonical[base] && !seen[tok] {
			seen[tok] = true
			problems = append(problems, fmt.Sprintf("%s: documented metric %s does not exist in internal/obs/names.go", docPath, tok))
		}
	}
	return problems
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool { return baseIdent(recv.List[0].Type).IsExported() }
