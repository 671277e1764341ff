package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods under cmd/
// and internal/ that production code does not call but that stay: test
// oracles that other packages' tests need. A key is the declaring
// directory, a dot, and the function or Type.Method name; a bare
// directory names a package whose non-test files are all test support,
// so its declarations are not checked and its calls do not count.
var testOnlyExports = map[string]string{
	"internal/testutil": "the shared test-support package: naive reference kernels, gradient checks, GOMAXPROCS pinning",

	"internal/transformer.LMModel.DecodeFull":     "full-recompute decode oracle for serve's bit-identity tests; testutil cannot import transformer",
	"internal/transformer.LMModel.EncodeBatch":    "frozen-memory oracle beside DecodeFull for serve's tests; testutil cannot import transformer",
	"internal/transformer.DecodeState.TruncateTo": "the tests' rewind of a decode state, in transformer's and serve's suites",
	"internal/transformer.DecodeState.Equal":      "state oracle of the bit-identity suites, in transformer's and spec's tests",
	"internal/mat.LaneWeights.Equal":              "sparse's build tests compare lane streams with it, so mat's export_test.go cannot hold it",
	"internal/pattern.Pattern.Equal":              "deploy's round-trip tests compare decoded patterns with it",
	"internal/obs.ValidateExposition":             "exposition oracle for obs's and serve's tests; obs's own tests cannot import testutil (testutil -> nn -> kernel -> obs)",
	"internal/obs.Registry.Gauge":                 "the registry's settable gauge; deleting the Gauge type drops its equality function from every binary that links obs, moving each later function of ./bench by 32 bytes, the host-speed reference unit included",
	"internal/deploy.Bundle.WriteTo":              "io.WriterTo form of Encode, pinned byte for byte by TestReferenceBundleBytes",
}

// TestNoTestOnlyExports fails when an exported function or method under
// cmd/ or internal/ has no caller outside _test.go files and is not in
// testOnlyExports, and when an entry of testOnlyExports is stale.
func TestNoTestOnlyExports(t *testing.T) {
	unused, stale, err := scanExports(".", testOnlyExports)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, or add it to testOnlyExports with the reason it stays", name)
	}
	for _, name := range stale {
		t.Errorf("testOnlyExports[%q] is stale: nothing by that name is declared, or production code now calls it", name)
	}
}

// TestScanExportsFixture runs the scanner over a small module whose
// answer is known.
func TestScanExportsFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n",
		"internal/a/a.go": `package a

type T struct{}

func Unused()     {}
func OnlyTested() {}
func Called()     { helper() }
func Kept()       {}
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}
func helper()        {}
func (T) Unique()    {}
func (T) Selected()  {}
func UsedInPackage() { T{}.Selected() }
`,
		"internal/a/b.go": "package a\n\nvar _ = UsedInPackage\n",
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OnlyTested(); T{}.Unique(); Unused() }
`,
		"cmd/c/main.go": `package main

import x "fix/internal/a"

func main() { x.Called() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flagged := []string{"internal/a.OnlyTested", "internal/a.Recursive", "internal/a.T.Unique", "internal/a.Unused"}
	for _, tc := range []struct {
		name      string
		allow     map[string]string
		wantFlag  []string
		wantStale []string
	}{
		{"allowlisted name kept", map[string]string{"internal/a.Kept": "oracle"}, flagged, nil},
		{"without the allowlist", nil, append([]string{"internal/a.Kept"}, flagged...), nil},
		{"entry naming nothing", map[string]string{"internal/a.Kept": "oracle", "internal/a.Gone": "deleted"}, flagged, []string{"internal/a.Gone"}},
		{"entry for a called name", map[string]string{"internal/a.Kept": "oracle", "internal/a.Called": "x"}, flagged, []string{"internal/a.Called"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			unused, stale, err := scanExports(root, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(tc.wantFlag)
			if fmt.Sprint(unused) != fmt.Sprint(tc.wantFlag) {
				t.Errorf("flagged %v, want %v", unused, tc.wantFlag)
			}
			if fmt.Sprint(stale) != fmt.Sprint(tc.wantStale) {
				t.Errorf("stale %v, want %v", stale, tc.wantStale)
			}
		})
	}
}

// scanExports parses every non-test Go file under root's cmd/,
// internal/, bench/ and examples/ and in root itself. It returns, sorted,
// the exported functions and methods declared in cmd/ or internal/ that
// nothing references and allow does not name, and the entries of allow
// that name nothing declared or nothing unreferenced.
//
// A function is referenced by pkg.Name in a file importing its package,
// or by its bare name in its own package outside its declaration. A
// method is referenced by any selector x.Name outside its declaration
// where x is not an imported package, whatever x is: a method that
// satisfies an interface is never reported, and neither is one whose
// name another type's method shares.
func scanExports(root string, allow map[string]string) (unused, stale []string, err error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	var module string
	for _, line := range strings.Split(string(modBytes), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, nil, fmt.Errorf("%s/go.mod: no module line", root)
	}

	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // directory relative to root -> files
	parseDir := func(dir string) error {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkgs[filepath.ToSlash(dir)] = append(pkgs[filepath.ToSlash(dir)], f)
		}
		return nil
	}
	if err := parseDir("."); err != nil {
		return nil, nil, err
	}
	for _, top := range []string{"cmd", "internal", "bench", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if os.IsNotExist(err) && path == filepath.Join(root, top) {
				return filepath.SkipDir
			}
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			return parseDir(rel)
		})
		if err != nil {
			return nil, nil, err
		}
	}
	pkgName := map[string]string{} // import path -> package name
	for dir, files := range pkgs {
		pkgName[module+"/"+dir] = files[0].Name.Name
	}

	// Every reference, keyed "dir.Name" for functions and ".Name" for
	// methods, with its position.
	refs := map[string][]token.Pos{}
	type decl struct {
		key, ref   string
		start, end token.Pos
	}
	var decls []decl
	for dir, files := range pkgs {
		if _, ok := allow[dir]; ok {
			continue // test support: not checked, and its calls do not count
		}
		checked := dir == "cmd" || strings.HasPrefix(dir, "cmd/") || dir == "internal" || strings.HasPrefix(dir, "internal/")
		for _, f := range files {
			imports := map[string]string{} // local name -> directory, or import path outside the module
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				name, ok := pkgName[path]
				if !ok {
					name = path[strings.LastIndex(path, "/")+1:]
				}
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(path, module+"/")
			}
			sels := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					key := "." + n.Sel.Name
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						key = imports[x.Name] + key
					}
					refs[key] = append(refs[key], n.Sel.Pos())
				case *ast.Ident:
					if !sels[n] {
						refs[dir+"."+n.Name] = append(refs[dir+"."+n.Name], n.Pos())
					}
				}
				return true
			})
			if !checked {
				continue
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := dir + "." + fn.Name.Name
				ref := key
				if fn.Recv != nil {
					key = dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
					ref = "." + fn.Name.Name
				}
				decls = append(decls, decl{key, ref, fn.Pos(), fn.End()})
			}
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := false
		for _, p := range refs[d.ref] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		switch _, ok := allow[d.key]; {
		case !used && !ok:
			unused = append(unused, d.key)
		case used && ok:
			stale = append(stale, d.key)
		}
	}
	for key := range allow {
		if !declared[key] && pkgs[key] == nil {
			stale = append(stale, key)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale, nil
}

// recvName is the type name of a method receiver: T from T, *T, T[P]
// or *T[P].
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
