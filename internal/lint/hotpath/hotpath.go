// Package hotpath implements the portlint analyzer that keeps the
// simulator's cycle loop allocation-free. Functions marked with a
// //portlint:hotpath directive in their doc comment run once (or more) per
// simulated cycle across every cell of every experiment; a single heap
// allocation there multiplies into millions per campaign and shows up
// directly in the benchmark's allocs_per_1k_cycles metric (bench/, which CI
// gates against a checked-in reference). Inside a marked function (and any
// function literal it contains) the analyzer flags:
//
//   - calls into package fmt, except inside the arguments of a panic call:
//     formatting allocates, but a panicking cycle loop is already off the
//     hot path and owes the operator a readable message.
//   - map composite literals and make(map[...]...), which always allocate;
//     hot-path lookups belong in flat slices or fixed-size arrays.
//   - make and new of any type: per-cycle scratch must be pre-allocated at
//     construction time and reused.
//   - append into anything except a reuse slice — a local variable bound to
//     an expression of the form base[:0] (the compact-in-place idiom, which
//     recycles base's backing array and cannot grow while the function
//     keeps total length <= len(base)). Any other append target may grow
//     an escaping slice and is flagged.
//
// A site whose safety rests on an invariant the analyzer cannot see (for
// example a free-list append whose capacity equals the physical register
// count, fixed at construction) carries a //portlint:ignore hotpath comment
// stating the invariant, exactly like the other portlint analyzers.
//
// The same body checks are exported as CheckBody for the hotpathclosure
// analyzer, which applies them to every unannotated function the call graph
// proves reachable from a marked root.
//
// Test files are not analyzed.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"portsim/internal/lint/analysis"
)

// directive is the doc-comment marker that opts a function in.
const directive = "//portlint:hotpath"

// Analyzer is the hotpath analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flags heap allocations (fmt, map literals, make/new, growing append) " +
		"inside functions marked //portlint:hotpath",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !Marked(fn) {
				continue
			}
			CheckBody(pass.TypesInfo, fn.Body, "a //portlint:hotpath function", "hotpath",
				func(pos token.Pos, format string, args ...any) {
					pass.Reportf(pos, format, args...)
				})
		}
	}
	return nil
}

// Marked reports whether the function's doc comment carries the
// //portlint:hotpath directive.
func Marked(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// CheckBody runs the hot-path allocation checks over one function body.
// where is the phrase naming why the body is hot ("a //portlint:hotpath
// function" here; the closure analyzer substitutes its own wording), and
// ignoreName is the analyzer name quoted in the append suppression hint.
// reuse collection happens before the flagging pass so that declaration
// order inside the body does not matter.
func CheckBody(info *types.Info, body *ast.BlockStmt, where, ignoreName string, report func(token.Pos, string, ...any)) {
	c := &checker{info: info, where: where, ignoreName: ignoreName, report: report}
	reuse := reuseSlices(body)
	c.walk(body, reuse, false)
}

// checker bundles the state one CheckBody invocation threads through the
// walk.
type checker struct {
	info       *types.Info
	where      string
	ignoreName string
	report     func(token.Pos, string, ...any)
}

// reuseSlices returns the names of local variables assigned a value of the
// form base[:0] anywhere in the body.
func reuseSlices(body *ast.BlockStmt) map[string]bool {
	reuse := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isZeroReslice(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				reuse[id.Name] = true
			}
		}
		return true
	})
	return reuse
}

// isZeroReslice matches base[:0] (and base[0:0]).
func isZeroReslice(e ast.Expr) bool {
	s, ok := e.(*ast.SliceExpr)
	if !ok || s.Slice3 || s.High == nil {
		return false
	}
	if s.Low != nil && !isIntLiteral(s.Low, "0") {
		return false
	}
	return isIntLiteral(s.High, "0")
}

func isIntLiteral(e ast.Expr, lit string) bool {
	b, ok := e.(*ast.BasicLit)
	return ok && b.Value == lit
}

// walk descends the AST flagging allocation sites. inPanic is true while
// inside the argument list of a panic call, where fmt is tolerated.
func (c *checker) walk(n ast.Node, reuse map[string]bool, inPanic bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			switch {
			case c.isBuiltin(e, "panic"):
				for _, arg := range e.Args {
					c.walk(arg, reuse, true)
				}
				return false
			case c.isFmtCall(e):
				if !inPanic {
					c.report(e.Pos(), "fmt call in %s allocates; format off the hot path (fmt is tolerated only inside panic arguments)", c.where)
				}
			case c.isBuiltin(e, "make"):
				if len(e.Args) > 0 && c.isMapType(e.Args[0]) {
					c.report(e.Pos(), "make(map) in %s allocates; use a flat slice or fixed-size array keyed by index", c.where)
				} else {
					c.report(e.Pos(), "make in %s allocates per call; pre-allocate at construction and reuse", c.where)
				}
			case c.isBuiltin(e, "new"):
				c.report(e.Pos(), "new in %s allocates per call; pre-allocate at construction and reuse", c.where)
			case c.isBuiltin(e, "append"):
				if len(e.Args) > 0 && !isReuseTarget(e.Args[0], reuse) {
					c.report(e.Pos(), "append into %s in %s may grow an escaping slice; append only into base[:0] reuse slices (or //portlint:ignore %s with the capacity invariant)", types.ExprString(e.Args[0]), c.where, c.ignoreName)
				}
			}
		case *ast.CompositeLit:
			if c.isMapType(e) {
				c.report(e.Pos(), "map literal in %s allocates; hoist it to a package-level variable or construction time", c.where)
			}
		}
		return true
	})
}

// isReuseTarget reports whether an append destination is a reuse slice: a
// base[:0] expression directly, or a local variable bound to one.
func isReuseTarget(dst ast.Expr, reuse map[string]bool) bool {
	if isZeroReslice(dst) {
		return true
	}
	id, ok := dst.(*ast.Ident)
	return ok && reuse[id.Name]
}

// isBuiltin reports whether the call's function is the named Go builtin
// (and not a shadowing local identifier).
func (c *checker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = c.info.Uses[id].(*types.Builtin)
	return ok
}

// isFmtCall reports whether the call is a selector into package fmt.
func (c *checker) isFmtCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := c.info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "fmt"
}

// isMapType reports whether the expression's type is a map.
func (c *checker) isMapType(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
