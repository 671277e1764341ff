package bench

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
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
	"internal/pattern.Pattern.Kept":               "sparse's build tests derive the reference dictionary from it",
	"internal/obs.ValidateExposition":             "exposition oracle for obs's and serve's tests; obs's own tests cannot import testutil (testutil -> nn -> kernel -> obs)",
	"internal/obs.Registry.Gauge":                 gaugeKept,
	"internal/obs.Gauge.Set":                      gaugeKept,
	"internal/obs.Gauge.Add":                      gaugeKept,
	"internal/nn.Linear.Kernel":                   "serve's tests read which kernel the engine left on the output projection; nn's export_test.go cannot serve another package's tests",
	"internal/deploy.Bundle.WriteTo":              "io.WriterTo form of Encode, pinned byte for byte by TestReferenceBundleBytes",
	"internal/prune.CostCOO":                      "the COO footprint hwsim's tests and BenchmarkAblationFormats weigh BP and pattern storage against (the paper's hardware argument); the predictor prices only pattern and block layouts",
}

// gaugeKept is why the settable gauge and its methods stay.
const gaugeKept = "the registry's settable gauge; deleting the Gauge type drops its equality function from every binary that links obs, moving each later function of ./bench by 32 bytes, the host-speed reference unit included"

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

// P.Pick is called on a P; Q.Pick only shares its name.
type P struct{}
type Q struct{}

func (P) Pick() int { return 0 }
func (Q) Pick() int { return 1 }

// Square.Area is reached only through Shape.
type Shape interface{ Area() float64 }
type Square struct{}

func (Square) Area() float64 { return 1 }
func Total(s Shape) float64  { return s.Area() }

// Copy.Clone is reached only through Twice's constraint.
type Copy struct{}

func (Copy) Clone() Copy { return Copy{} }

func Twice[M interface{ Clone() M }](m M) M { return m.Clone() }

// T.String is reached only through fmt.
func (T) String() string { return "t" }
`,
		"internal/a/b.go": "package a\n\nvar _ = UsedInPackage\n",
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OnlyTested(); T{}.Unique(); Unused() }
`,
		"internal/b/b.go":      "//go:build !fixtwin\n\npackage b\n\nfunc Twin() {}\n",
		"internal/b/b_twin.go": "//go:build fixtwin\n\npackage b\n\nfunc Twin() {}\n",
		"cmd/c/main.go": `package main

import (
	"fmt"

	x "fix/internal/a"
	"fix/internal/b"
)

func main() {
	x.Called()
	x.P{}.Pick()
	x.Total(x.Square{})
	x.Twice(x.Copy{})
	b.Twin()
	fmt.Println(x.T{})
}
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
	flagged := []string{"internal/a.OnlyTested", "internal/a.Q.Pick", "internal/a.Recursive", "internal/a.T.Unique", "internal/a.Unused"}
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

// scanExports type-checks every non-test package under root's cmd/,
// internal/, bench/ and examples/ and in root itself, in one type
// universe: module packages from the files go/build selects for this
// platform, the standard library from source. It returns, sorted, the
// exported functions and methods declared in cmd/ or internal/ that no
// code uses outside their own body and allow does not name, and the
// entries of allow that name nothing declared or something used.
//
// A method is used when it is selected on its own type, on an interface
// its type implements, or on a type parameter that an instantiation
// binds to its type; a String() string or Error() string is used, since
// fmt calls it.
func scanExports(root string, allow map[string]string) (unused, stale []string, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`).FindSubmatch(mod)
	if m == nil {
		return nil, nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	l := &modLoader{root: root, module: string(m[1]), pkgs: map[string]*modPkg{}}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		if d.Name() == "testdata" || rel != "." && !slices.Contains([]string{"cmd", "internal", "bench", "examples"}, top) {
			return filepath.SkipDir
		}
		if _, err = l.load(filepath.ToSlash(rel)); errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	decls := map[*types.Func]string{} // the checked declarations, keyed dir.Name or dir.Type.Method
	used, ifaceMethods := map[*types.Func]bool{}, map[*types.Func]bool{}
	viaParam := map[*types.TypeParam][]string{} // methods selected on a type parameter
	args := map[*types.TypeParam][]types.Type{} // the type arguments bound to it
	for dir, p := range l.pkgs {
		if _, support := allow[dir]; support {
			continue // test support: not checked, and its uses do not count
		}
		if scope := p.pkg.Scope(); strings.HasPrefix(dir+"/", "cmd/") || strings.HasPrefix(dir+"/", "internal/") {
			for _, name := range scope.Names() {
				switch obj := scope.Lookup(name).(type) {
				case *types.Func:
					if obj.Exported() {
						decls[obj] = dir + "." + name
					}
				case *types.TypeName:
					if t, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
						for i := range t.NumMethods() {
							if m := t.Method(i); m.Exported() {
								decls[m] = dir + "." + name + "." + m.Name()
							}
						}
					}
				}
			}
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Origin().Scope() != nil && fn.Origin().Scope().Contains(id.Pos()) {
				continue // not a function, or a recursive call
			}
			used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[fn] = true
			}
		}
		for _, sel := range p.info.Selections {
			if tp, ok := sel.Recv().(*types.TypeParam); ok {
				viaParam[tp] = append(viaParam[tp], sel.Obj().Name())
			}
		}
		for id, in := range p.info.Instances {
			if fn, ok := p.info.Uses[id].(*types.Func); ok {
				for i, tps := 0, fn.Origin().Type().(*types.Signature).TypeParams(); i < tps.Len(); i++ {
					args[tps.At(i)] = append(args[tps.At(i)], in.TypeArgs.At(i))
				}
			}
		}
	}
	for tp, names := range viaParam {
		for _, arg := range args[tp] {
			for _, name := range names {
				obj, _, _ := types.LookupFieldOrMethod(arg, true, nil, name)
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	declared := map[string]bool{}
	for fn, key := range decls {
		declared[key] = true
		isUsed := used[fn] || (fn.Name() == "String" || fn.Name() == "Error") && types.TypeString(fn.Type(), nil) == "func() string"
		recv := fn.Type().(*types.Signature).Recv()
		for im := range ifaceMethods {
			if !isUsed && recv != nil && im.Name() == fn.Name() {
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				isUsed = types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)
			}
		}
		switch _, ok := allow[key]; {
		case !isUsed && !ok:
			unused = append(unused, key)
		case isUsed && ok:
			stale = append(stale, key)
		}
	}
	for key := range allow {
		if !declared[key] && l.pkgs[key] == nil {
			stale = append(stale, key)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale, nil
}

// scanFset and scanStd are shared by every scan, so a test binary
// type-checks the standard library from source once.
var (
	scanFset = token.NewFileSet()
	scanStd  = importer.ForCompiler(scanFset, "source", nil).(types.ImporterFrom)
)

// modPkg is one type-checked package of the module.
type modPkg struct {
	pkg  *types.Package
	info *types.Info
}

// modLoader type-checks the module's packages, as their importer, and
// hands every other import to scanStd.
type modLoader struct {
	root, module string
	pkgs         map[string]*modPkg // by directory relative to root
}

func (l *modLoader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *modLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.module+"/")
	if !ok {
		return scanStd.ImportFrom(path, dir, mode)
	}
	return l.load(rel)
}

// load type-checks the package in dir, relative to the module root, once,
// from the non-test files go/build selects for this platform.
func (l *modLoader) load(dir string) (*types.Package, error) {
	if p := l.pkgs[dir]; p != nil {
		return p.pkg, nil
	}
	bp, err := build.Default.ImportDir(filepath.Join(l.root, dir), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(scanFset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p := &modPkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{}, Instances: map[*ast.Ident]types.Instance{}}}
	p.pkg, err = (&types.Config{Importer: l}).Check(path.Join(l.module, dir), scanFset, files, p.info)
	l.pkgs[dir] = p
	return p.pkg, err
}
