// Package counterhygiene implements the portlint analyzer for the
// stringly-typed stats.Set counter namespace. Counters are created on first
// write and read back by name; a typo on either side produces a silent zero
// that flows straight into EXPERIMENTS.md. The analyzer enforces:
//
//   - Per package: every counter name passed to (*stats.Set).Add/Get
//     must be a compile-time string constant, or a call to a name
//     constructor declared in the stats package itself (stats.ClassCounter,
//     stats.GrantBucket) for the few families whose names are data-
//     dependent.
//   - In the core simulator packages (ConstOnlyPackages), the constant must
//     be one of the canonical names declared in internal/stats/names.go —
//     bare string literals are flagged, so the whole counter vocabulary
//     lives in one audited file.
//   - Across the module: a name (or name constructor) that is read but
//     never written is flagged as a probable typo; the converse — canonical
//     constants in names.go that no code ever writes — is flagged as dead
//     vocabulary, as are two constants spelling the same name.
//
// The cross-module checks need the writers in the analyzed package set, so
// they self-disable when no write is visible (linting a single read-only
// package) — run portlint over ./... for full coverage. Test files are not
// analyzed; tests exercise ad-hoc counters freely.
package counterhygiene

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"portsim/internal/lint/analysis"
)

// StatsPackage is the import path of the stats package whose Set type owns
// the counter namespace.
var StatsPackage = "portsim/internal/stats"

// NamesFile is the basename of the canonical counter-vocabulary file inside
// StatsPackage.
var NamesFile = "names.go"

// ConstOnlyPackages are the packages whose counter names must come from the
// canonical constants in NamesFile rather than bare string literals.
var ConstOnlyPackages = map[string]bool{
	"portsim/internal/cpu":   true,
	"portsim/internal/core":  true,
	"portsim/internal/cache": true,
}

// methodNameArgs maps stats.Set method names to the indices of their
// counter-name arguments and whether the method writes the counter.
var methodNameArgs = map[string]struct {
	args  []int
	write bool
}{
	"Add": {args: []int{0}, write: true},
	"Get": {args: []int{0}, write: false},
}

// Analyzer is the counterhygiene analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "counterhygiene",
	Doc: "flags non-constant and non-canonical stats counter names, counter " +
		"reads that no code ever writes, and dead or duplicate entries in " +
		"the canonical names file",
	Run:       run,
	RunModule: runModule,
}

// use records one counter-name argument at a call site.
type use struct {
	// key identifies the counter: the literal name for constant
	// arguments, or "call:<pkgpath>.<func>" for blessed name-constructor
	// calls.
	key     string
	display string // human-readable form for diagnostics
	write   bool
	pos     token.Pos
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == StatsPackage {
		// The stats package implements the counter API, so the names
		// it handles are necessarily dynamic.
		return nil
	}
	constOnly := ConstOnlyPackages[pass.Pkg.Path()]
	forEachUse(pass.Files, pass.TypesInfo, func(arg ast.Expr, write bool) {
		tv := pass.TypesInfo.Types[arg]
		if tv.Value != nil && tv.Value.Kind() == constant.String {
			if !constOnly {
				return
			}
			if c := namedConstOf(pass.TypesInfo, arg); c == nil {
				pass.Reportf(arg.Pos(),
					"stringly-typed counter name %s; use the canonical constant from %s's %s",
					types.ExprString(arg), StatsPackage, NamesFile)
			} else if c.Pkg() == nil || c.Pkg().Path() != StatsPackage {
				pass.Reportf(arg.Pos(),
					"counter name constant %s is declared outside %s; move it into the canonical %s",
					c.Name(), StatsPackage, NamesFile)
			}
			return
		}
		if constructorOf(pass.TypesInfo, arg) != nil {
			return
		}
		pass.Reportf(arg.Pos(),
			"non-constant counter name %s defeats typo detection; use a constant from %s's %s or a stats name constructor",
			types.ExprString(arg), StatsPackage, NamesFile)
	})
	return nil
}

func runModule(pass *analysis.ModulePass) error {
	var uses []use
	for _, pkg := range pass.Pkgs {
		forEachUse(pkg.Files, pkg.TypesInfo, func(arg ast.Expr, write bool) {
			u := use{write: write, pos: arg.Pos()}
			tv := pkg.TypesInfo.Types[arg]
			switch {
			case tv.Value != nil && tv.Value.Kind() == constant.String:
				u.key = constant.StringVal(tv.Value)
				u.display = fmt.Sprintf("%q", u.key)
			default:
				fn := constructorOf(pkg.TypesInfo, arg)
				if fn == nil {
					return // reported per-package as non-constant
				}
				u.key = "call:" + fn.Pkg().Path() + "." + fn.Name()
				u.display = fn.Pkg().Name() + "." + fn.Name() + "(...)"
			}
			uses = append(uses, u)
		})
	}

	written := make(map[string]bool)
	for _, u := range uses {
		if u.write {
			written[u.key] = true
		}
	}
	// With no writer in the analyzed set every read would look orphaned;
	// that means we are linting a read-only slice of the module, where the
	// cross-package checks cannot say anything useful.
	if len(written) == 0 {
		return nil
	}
	for _, u := range uses {
		if !u.write && !written[u.key] {
			pass.Reportf(u.pos,
				"counter %s is read but never written anywhere in the analyzed packages (typo, or a missing Add)",
				u.display)
		}
	}
	checkNamesFile(pass, written)
	return nil
}

// checkNamesFile audits the canonical vocabulary in StatsPackage's
// NamesFile: every exported string constant there must be written by some
// analyzed package, and no two constants may spell the same counter.
func checkNamesFile(pass *analysis.ModulePass, written map[string]bool) {
	var stats *analysis.Package
	for _, pkg := range pass.Pkgs {
		if pkg.Path == StatsPackage {
			stats = pkg
		}
	}
	if stats == nil {
		return // stats not among the analyzed packages
	}
	firstByValue := make(map[string]*types.Const)
	scope := stats.Types.Scope()
	var names []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String || !c.Exported() {
			continue
		}
		if filepath.Base(pass.Fset.Position(c.Pos()).Filename) != NamesFile {
			continue
		}
		names = append(names, name)
		value := constant.StringVal(c.Val())
		if prev, dup := firstByValue[value]; dup {
			pass.Reportf(c.Pos(), "counter name constant %s duplicates %s (both %q)",
				c.Name(), prev.Name(), value)
		} else {
			firstByValue[value] = c
		}
	}
	sort.Strings(names)
	for _, name := range names {
		c := scope.Lookup(name).(*types.Const)
		value := constant.StringVal(c.Val())
		if first := firstByValue[value]; first != nil && first != c {
			continue // duplicate already reported
		}
		if !written[value] {
			pass.Reportf(c.Pos(),
				"canonical counter name %s (%q) is never written by the analyzed packages; delete it or add the missing instrumentation",
				c.Name(), value)
		}
	}
}

// WrittenNames returns the sorted literal counter names written anywhere in
// pkgs, for regenerating the canonical names file (portlint -counters).
func WrittenNames(pkgs []*analysis.Package) []string {
	set := make(map[string]bool)
	for _, pkg := range pkgs {
		forEachUse(pkg.Files, pkg.TypesInfo, func(arg ast.Expr, write bool) {
			tv := pkg.TypesInfo.Types[arg]
			if write && tv.Value != nil && tv.Value.Kind() == constant.String {
				set[constant.StringVal(tv.Value)] = true
			}
		})
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// forEachUse invokes fn for every counter-name argument of a stats.Set
// method call in the files.
func forEachUse(files []*ast.File, info *types.Info, fn func(arg ast.Expr, write bool)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			method, ok := methodNameArgs[sel.Sel.Name]
			if !ok || !isStatsSetMethod(info, sel) {
				return true
			}
			for _, idx := range method.args {
				if idx < len(call.Args) {
					fn(call.Args[idx], method.write)
				}
			}
			return true
		})
	}
}

// isStatsSetMethod reports whether sel selects a method whose receiver is
// the stats.Set type.
func isStatsSetMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Set" && obj.Pkg() != nil && obj.Pkg().Path() == StatsPackage
}

// namedConstOf resolves arg to the declared constant it references, or nil
// when arg is not a plain constant reference (a literal, a concatenation).
func namedConstOf(info *types.Info, arg ast.Expr) *types.Const {
	var ident *ast.Ident
	switch e := arg.(type) {
	case *ast.Ident:
		ident = e
	case *ast.SelectorExpr:
		ident = e.Sel
	default:
		return nil
	}
	c, _ := info.Uses[ident].(*types.Const)
	return c
}

// constructorOf reports the stats-package function a name-constructor call
// resolves to, or nil when arg is not such a call.
func constructorOf(info *types.Info, arg ast.Expr) *types.Func {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return nil
	}
	var ident *ast.Ident
	switch e := call.Fun.(type) {
	case *ast.Ident:
		ident = e
	case *ast.SelectorExpr:
		ident = e.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[ident].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != StatsPackage {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Results().Len() != 1 {
		return nil
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.String {
		return nil
	}
	return fn
}
