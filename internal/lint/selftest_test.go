package lint_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"portsim/internal/lint"
)

// TestRepoClean asserts the invariant CI gates on: the full analyzer suite
// reports zero active findings over the module's own packages (suppressed
// findings are expected — every //portlint:ignore directive shields one).
func TestRepoClean(t *testing.T) {
	findings, err := lint.Run("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range lint.Active(findings) {
		t.Errorf("portlint finding on the repository itself: %s", f)
	}
}

// testOnlyExportAllowlist names the exported functions kept although only
// tests call them: independent oracles and fixtures that check production
// code from the outside.
var testOnlyExportAllowlist = map[string]bool{
	"trace.NewSliceStream":         true, // fixture: a Stream over a fixed instruction slice
	"cache.NewFunctional":          true, // oracle: the flat-array reference the cache levels are fuzzed against
	"cache.Functional.Read":        true, // oracle: reads back the reference's contents
	"core.StoreBuffer.ReadForward": true, // oracle hook: byte-exact forwarding in TestStoreBufferByteExactness
}

// TestNoTestOnlyExports fails on any exported function or method declared
// under internal/ whose name no non-test file of the module or of bench/
// uses outside a declaration: production API that only tests read is
// deleted rather than kept alive by its test. The match is by name, so a
// method shares its uses with every other identifier of that name.
func TestNoTestOnlyExports(t *testing.T) {
	const root = "../.."
	type export struct{ key, pos string }
	var exports []export
	used := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
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
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if fn.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
				exports = append(exports, export{f.Name.Name + "." + funcName(fn), fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exported := make(map[string]bool)
	for _, e := range exports {
		exported[e.key] = true
		name := e.key[strings.LastIndexByte(e.key, '.')+1:]
		if !used[name] && !testOnlyExportAllowlist[e.key] {
			t.Errorf("%s: %s is exported but only tests call it", e.pos, e.key)
		}
	}
	for key := range testOnlyExportAllowlist {
		if !exported[key] {
			t.Errorf("allowlisted %s is not declared under internal/; drop it from the allowlist", key)
		}
	}
}

// funcName returns fn's name, qualified by its receiver's type for a method.
// The module declares no generic types, so a receiver is T or *T.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return recv.(*ast.Ident).Name + "." + fn.Name.Name
}

// TestGoVet asserts go vet stays clean, mirroring the CI gate.
func TestGoVet(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "../.."
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet ./...: %v\n%s", err, out.Bytes())
	}
}

// TestPlantedViolations builds a scratch module containing one violation per
// determinism/arithmetic analyzer and asserts the suite fails on it — the
// guarantee that a regression cannot slip through a green lint run.
func TestPlantedViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("main.go", `package main

import (
	"fmt"
	"math/rand"
	"time"
)

func main() {
	defer func() { _ = recover() }()       // bare recover: recoverhygiene
	start := uint64(time.Now().UnixNano()) // time.Now: detrand
	end := uint64(rand.Int63())            // global rand: detrand
	elapsed := end - start                 // unguarded uint64 subtraction: cyclemath
	if float64(elapsed) == 1.0 {           // exact float equality: floatcmp
		fmt.Println("never")
	}
}
`)

	findings, err := lint.Run(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("lint.Run on scratch module: %v", err)
	}
	wantAnalyzers := []string{"cyclemath", "detrand", "floatcmp", "recoverhygiene"}
	got := make(map[string]int)
	for _, f := range findings {
		got[f.Analyzer]++
	}
	for _, name := range wantAnalyzers {
		if got[name] == 0 {
			t.Errorf("planted %s violation not reported; findings: %v", name, findings)
		}
	}
	if got["detrand"] < 2 {
		t.Errorf("want both the rand and wall-clock detrand findings, got %d", got["detrand"])
	}
}

// TestPlantedClosureViolation plants an allocating helper two hops below an
// annotated hotpath function in a scratch module and asserts the acceptance
// criterion for the whole-program analyzers: both hotpathclosure and
// escapegate catch it, each with the root→sink call chain.
func TestPlantedClosureViolation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("hot.go", `package hot

var sink []int

//portlint:hotpath
func step() {
	helperA()
}

func helperA() { helperB() }

func helperB() {
	sink = make([]int, 32)
}
`)

	findings, err := lint.Run(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("lint.Run on scratch module: %v", err)
	}
	wantChain := []string{"hot.step", "hot.helperA", "hot.helperB"}
	caught := make(map[string]bool)
	for _, f := range findings {
		if f.Analyzer != "hotpathclosure" && f.Analyzer != "escapegate" {
			continue
		}
		caught[f.Analyzer] = true
		if strings.Join(f.Chain, ",") != strings.Join(wantChain, ",") {
			t.Errorf("%s chain = %v, want %v", f.Analyzer, f.Chain, wantChain)
		}
		if !strings.Contains(f.Message, "hot.step -> hot.helperA -> hot.helperB") {
			t.Errorf("%s message missing the root→sink chain: %s", f.Analyzer, f.Message)
		}
	}
	for _, name := range []string{"hotpathclosure", "escapegate"} {
		if !caught[name] {
			t.Errorf("planted two-hop allocation not caught by %s; findings: %v", name, findings)
		}
	}
}

// TestSuiteStable pins the analyzer roster so CI output stays predictable.
func TestSuiteStable(t *testing.T) {
	var names []string
	for _, a := range lint.Suite() {
		names = append(names, a.Name)
	}
	want := "configbounds,counterhygiene,cyclemath,detrand,escapegate,floatcmp,hotpath,hotpathclosure,layerimports,maporder,recoverhygiene"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("Suite() = %s, want %s", got, want)
	}
}
