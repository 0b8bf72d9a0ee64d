package robopt

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that may
// stay exported although no other package refers to them, one path.Match
// pattern per line with its reason: "<package dir>.<Name>  # why".
const surfaceAllowlist = "internal/surface_allow.txt"

// TestInternalSurface keeps the packages under internal/ from growing API that
// nothing uses: every exported top-level identifier, and every exported method
// of an exported type, is referred to from a non-test file of another package
// — another internal package, cmd/, examples/, bench/ or this one — or is
// named in the signature of one that is, or is on the allowlist with a reason.
// It is syntactic (go/parser, nothing to install): a top-level name counts as
// referred to where a file imports its package and selects the name from it, a
// method wherever any file outside its package selects that method name from
// anything. That can miss dead code, never report live code.
func TestInternalSurface(t *testing.T) {
	fset := token.NewFileSet()
	type pkgFiles struct {
		name  string // the package clause
		files []*ast.File
	}
	pkgs := map[string]*pkgFiles{} // directory → its non-test files
	for _, root := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// The root package is "." without its subdirectories; out/ is
				// where builds and the benchmark leave their files.
				if (root == "." && path != ".") || d.Name() == "out" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if pkgs[dir] == nil {
				pkgs[dir] = &pkgFiles{name: f.Name.Name}
			}
			pkgs[dir].files = append(pkgs[dir].files, f)
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}

	// What each package's other-package files select: used[dir][Name] for a
	// name selected from an import of repro/<dir>, selected[dir][Name] for any
	// x.Name in a file of dir.
	used := map[string]map[string]bool{}
	selected := map[string]map[string]bool{}
	for dir, p := range pkgs {
		selected[dir] = map[string]bool{}
		for _, f := range p.files {
			imports := map[string]string{} // local name → imported directory
			for _, im := range f.Imports {
				path, _ := strconv.Unquote(im.Path.Value)
				target, ok := strings.CutPrefix(path, "repro/")
				if !ok || pkgs[target] == nil {
					continue
				}
				local := pkgs[target].name
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = target
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selected[dir][sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" && imports[x.Name] != dir {
					target := imports[x.Name]
					if used[target] == nil {
						used[target] = map[string]bool{}
					}
					used[target][sel.Sel.Name] = true
				}
				return true
			})
		}
	}

	allowed := map[string]bool{} // pattern → it excused something
	af, err := os.Open(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	for sc := bufio.NewScanner(af); sc.Scan(); {
		entry, reason, _ := strings.Cut(sc.Text(), "#")
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q carries no reason", surfaceAllowlist, entry)
		}
		allowed[entry] = false
	}

	var unused []string
	for dir, p := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		// Every exported declaration of the package, with the names its
		// signature mentions (a function's parameters and results, a type's
		// definition, a value's type and initialiser — never a body): what is
		// in use keeps those in use too.
		type decl struct {
			id       string   // how the test reports it
			method   string   // the method name, for a method
			mentions []string // identifiers in its signature
		}
		decls := map[string]*decl{} // keyed by name, a method by Type.Name
		add := func(key, method string, sig ...ast.Node) {
			d := &decl{id: dir + "." + key, method: method}
			for _, n := range sig {
				if n == nil {
					continue
				}
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						d.mentions = append(d.mentions, id.Name)
					}
					return true
				})
			}
			decls[key] = d
		}
		for _, f := range p.files {
			for _, gd := range f.Decls {
				switch d := gd.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						add(d.Name.Name, "", d.Type)
					} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
						add(recv+"."+d.Name.Name, d.Name.Name, d.Type)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name.Name, "", s.Type)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									sig := []ast.Node{s.Type}
									for _, v := range s.Values {
										sig = append(sig, v)
									}
									add(n.Name, "", sig...)
								}
							}
						}
					}
				}
			}
		}
		if used[dir] == nil {
			used[dir] = map[string]bool{}
		}
		inUse := map[string]bool{}
		methodUsed := map[string]bool{} // method names selected outside, or in an in-use interface
		for other, names := range selected {
			if other != dir {
				for n := range names {
					methodUsed[n] = true
				}
			}
		}
		// In use: referred to from outside, then what the allowlist excuses
		// among the rest, each time with everything their signatures mention.
		settle := func() {
			for changed := true; changed; {
				changed = false
				for key, d := range decls {
					if inUse[key] || !(used[dir][key] || (d.method != "" && methodUsed[d.method])) {
						continue
					}
					inUse[key], changed = true, true
					for _, m := range d.mentions {
						used[dir][m], methodUsed[m] = true, true
					}
				}
			}
		}
		settle()
		for key, d := range decls {
			if inUse[key] {
				continue
			}
			for pattern := range allowed {
				if ok, err := path.Match(pattern, d.id); err != nil {
					t.Fatalf("%s: %q: %v", surfaceAllowlist, pattern, err)
				} else if ok {
					allowed[pattern], used[dir][key] = true, true
					if d.method != "" {
						methodUsed[d.method] = true
					}
				}
			}
		}
		settle()
		for key, d := range decls {
			if !inUse[key] {
				unused = append(unused, d.id)
			}
		}
	}
	sort.Strings(unused)
	for _, id := range unused {
		t.Errorf("%s is exported but no non-test file outside its package refers to it: unexport it, delete it, or give %s a line with the reason", id, surfaceAllowlist)
	}
	for pattern, hit := range allowed {
		if !hit {
			t.Errorf("%s: %q excuses nothing any more; drop the line", surfaceAllowlist, pattern)
		}
	}
}

// TestTDGenDrawsWithoutEnumerator: TDGen draws its β-bounded plans itself,
// so the training set does not move when the enumerator's scheduling or
// pruning does. No non-test file of internal/tdgen may call Enumerate,
// EnumerateFull or an Optimize* method.
func TestTDGenDrawsWithoutEnumerator(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("internal/tdgen/*.go")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if name := sel.Sel.Name; name == "Enumerate" || name == "EnumerateFull" || strings.HasPrefix(name, "Optimize") {
					t.Errorf("%s: tdgen calls %s; draw the plans in tdgen instead", fset.Position(sel.Pos()), name)
				}
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no non-test file under internal/tdgen: the guard checked nothing")
	}
}

// recvName is the type name of a method receiver: T for T, *T and T[P].
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
