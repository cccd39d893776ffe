package lint_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"portsim/internal/lint"
	"portsim/internal/lint/loader"
)

// TestRepoClean asserts the invariant CI gates on: the full analyzer suite
// reports zero active findings over the module's own packages (suppressed
// findings are expected — every //portlint:ignore directive shields one).
func TestRepoClean(t *testing.T) {
	for _, f := range lint.Active(analyze(t, "../..")) {
		t.Errorf("portlint finding on the repository itself: %s", f)
	}
}

// analyze loads every package under dir and runs the full suite over them,
// as cmd/portlint does.
func analyze(t *testing.T, dir string) []lint.Finding {
	t.Helper()
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Analyze(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// testOnlyExportAllowlist names the exported functions kept although only
// tests call them, by types.Func.FullName: independent oracles and fixtures
// that check production code from the outside.
var testOnlyExportAllowlist = map[string]bool{
	"portsim/internal/trace.NewSliceStream":            true, // fixture: a Stream over a fixed instruction slice
	"portsim/internal/cache.NewFunctional":             true, // oracle: the flat-array reference the cache levels are fuzzed against
	"(*portsim/internal/cache.Functional).Level":       true, // oracle: the timing level the reference wraps
	"(*portsim/internal/cache.Functional).Read":        true, // oracle: reads back the reference's contents
	"(*portsim/internal/cache.Functional).Write":       true, // oracle: writes through the reference
	"(*portsim/internal/cache.Functional).Flush":       true, // oracle: writes the reference's dirty lines back
	"portsim/internal/flatmem.New":                     true, // oracle: the flat memory behind the data-carrying store buffer's checks
	"(*portsim/internal/core.StoreBuffer).ReadForward": true, // oracle hook: byte-exact forwarding in TestStoreBufferByteExactness
	"portsim/internal/lint/analysistest.Run":           true, // fixture: runs an analyzer over its testdata packages
}

// stdlibProtocols declares the standard-library interfaces the standard
// library calls into without a use in the module's files: fmt calls Error
// and String, errors.Is, errors.As and errors.Unwrap call Is, As and
// Unwrap, and encoding/json calls MarshalJSON and UnmarshalJSON.
const stdlibProtocols = `package protocols

type (
	errorer     interface{ Error() string }
	stringer    interface{ String() string }
	iser        interface{ Is(error) bool }
	aser        interface{ As(any) bool }
	unwrapper   interface{ Unwrap() error }
	marshaler   interface{ MarshalJSON() ([]byte, error) }
	unmarshaler interface{ UnmarshalJSON([]byte) error }
)
`

// TestNoTestOnlyExports fails on any exported function or method declared
// under internal/ that no non-test file of the module or of bench/ uses:
// production API that only tests read is deleted rather than kept alive by
// its test. The scan is type-checked (internal/lint/loader) and keyed by
// types.Func.FullName, as internal/lint/callgraph keys its nodes, so a
// same-named identifier elsewhere hides nothing. A function is used when
// a non-test file's Uses or Selections resolves to it. A method is also
// used when its type implements a used interface method of the same name,
// or one of stdlibProtocols, because those calls go through the interface.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs, err := loader.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loader.Load("../../bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	var ifaceMethods []*types.Func
	use := func(obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if key := fn.FullName(); !used[key] {
			used[key] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
	}
	for _, pkg := range append(pkgs, bench...) {
		for _, obj := range pkg.TypesInfo.Uses {
			use(obj)
		}
		for _, sel := range pkg.TypesInfo.Selections {
			use(sel.Obj())
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocols.go", stdlibProtocols, 0)
	if err != nil {
		t.Fatal(err)
	}
	protocols, err := new(types.Config).Check("protocols", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range protocols.Scope().Names() {
		iface := protocols.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}
	// implements reports whether method m's receiver type satisfies the
	// interface of a used interface method named like m.
	implements := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		for _, im := range ifaceMethods {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() && (types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
		return false
	}
	declared := make(map[string]bool)
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "portsim/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				key := fn.FullName()
				declared[key] = true
				switch live := used[key] || implements(fn); {
				case live && testOnlyExportAllowlist[key]:
					t.Errorf("%s: allowlisted %s is used outside tests; drop it from the allowlist", pkg.Fset.Position(fd.Pos()), key)
				case !live && !testOnlyExportAllowlist[key]:
					t.Errorf("%s: %s is exported but only tests call it", pkg.Fset.Position(fd.Pos()), key)
				}
			}
		}
	}
	for key := range testOnlyExportAllowlist {
		if !declared[key] {
			t.Errorf("allowlisted %s is not declared under internal/; drop it from the allowlist", key)
		}
	}
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

	findings := analyze(t, dir)
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

	findings := analyze(t, dir)
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
