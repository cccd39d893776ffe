// Package callgraph builds a static call graph over the packages the
// portlint loader produced, for the whole-program analyzers (hotpathclosure,
// escapegate, maporder). The graph is deliberately simple and deterministic
// rather than precise:
//
//   - Direct calls and concrete method calls resolve to the called
//     function's declaration.
//   - Interface method calls resolve to every in-repo named type that
//     implements the interface (the conservative over-approximation: any of
//     them could be behind the value at run time).
//   - A function or method referenced as a value (passed as a callback,
//     stored in a field) counts as called from the referencing function —
//     again conservative: a reference that is never invoked only widens the
//     closure, it cannot hide an invocation from it.
//   - Calls inside function literals are attributed to the enclosing
//     declared function, because the literal runs (if ever) with the
//     enclosing function's hot-path obligations.
//
// Nodes and edges are collected in source order over packages sorted by
// import path, so every traversal below is reproducible run to run — a
// requirement the byte-stable portlint -json output inherits.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"portsim/internal/lint/analysis"
)

// Directives recognised in function doc comments.
const (
	// HotpathDirective marks a closure root: the function runs on the
	// simulator's per-cycle hot path.
	HotpathDirective = "//portlint:hotpath"
	// ColdpathDirective stops closure propagation: the function is
	// reachable from a hot function but runs only on a cold edge (error
	// path, end-of-run drain). It must carry an invariant comment on the
	// same line explaining why the edge is cold.
	ColdpathDirective = "//portlint:coldpath"
)

// Func is one function declaration in the loaded packages.
type Func struct {
	// Obj is the type-checker's canonical object for the function.
	Obj *types.Func
	// Decl is the source declaration (always non-nil, with a body).
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *analysis.Package
	// Calls are the function's call sites and function-value references in
	// source order. Callees outside the loaded packages (stdlib and other
	// dependencies) are included; they have no Func node of their own.
	Calls []Call

	// Hotpath and Coldpath report the doc-comment directives.
	Hotpath  bool
	Coldpath bool
	// ColdpathReason is the invariant comment after the coldpath
	// directive; empty means the directive is malformed.
	ColdpathReason string
}

// Call is one resolved call site (or function-value reference).
type Call struct {
	// Pos is the call or reference position.
	Pos token.Pos
	// Callee is the resolved function object. For interface method calls
	// one Call is recorded per in-repo implementation, plus one for the
	// interface method itself.
	Callee *types.Func
	// ViaInterface marks edges added by interface-implementation
	// resolution rather than direct syntax.
	ViaInterface bool
}

// Graph is the static call graph of one loaded package set.
//
// Nodes are keyed by types.Func.FullName rather than object identity: a
// target package type-checked from source and the same package imported
// from export data by a sibling target yield distinct *types.Func objects
// for the same function, and the full name is the identity that survives
// that split.
type Graph struct {
	Fset *token.FileSet

	funcs map[string]*Func
	order []*Func
}

// Build constructs the call graph over the loaded packages.
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{funcs: make(map[string]*Func)}
	if len(pkgs) == 0 {
		return g
	}
	g.Fset = pkgs[0].Fset

	// Pass 1: index every declared function.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				fn.Hotpath, fn.Coldpath, fn.ColdpathReason = directives(fd)
				g.funcs[obj.FullName()] = fn
				g.order = append(g.order, fn)
			}
		}
	}

	// Pass 2: resolve call sites.
	res := newResolver(pkgs)
	for _, fn := range g.order {
		fn.Calls = res.callsIn(fn)
	}
	return g
}

// Funcs returns every declared function in deterministic (source) order.
func (g *Graph) Funcs() []*Func { return g.order }

// Lookup returns the graph node for a function object, or nil when the
// function is not declared in the loaded packages. Resolution goes through
// FullName, so an export-data object and its source-checked counterpart
// find the same node.
func (g *Graph) Lookup(obj *types.Func) *Func { return g.funcs[obj.FullName()] }

// resolver resolves the callee of each call expression and enumerates
// interface implementations among the loaded packages.
type resolver struct {
	pkgs []*analysis.Package
	// named lists every named non-interface type declared in the loaded
	// packages, in deterministic order, for interface-implementation
	// scans.
	named []*types.Named
	// ifaceImpl caches interface-method -> implementing methods.
	ifaceImpl map[*types.Func][]*types.Func
}

func newResolver(pkgs []*analysis.Package) *resolver {
	r := &resolver{pkgs: pkgs, ifaceImpl: make(map[*types.Func][]*types.Func)}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			r.named = append(r.named, named)
		}
	}
	return r
}

// implementations returns the in-repo methods that satisfy an interface
// method, resolving dynamic dispatch conservatively.
func (r *resolver) implementations(m *types.Func) []*types.Func {
	if impls, ok := r.ifaceImpl[m]; ok {
		return impls
	}
	var impls []*types.Func
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		r.ifaceImpl[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		r.ifaceImpl[m] = nil
		return nil
	}
	for _, named := range r.named {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		if impl, ok := obj.(*types.Func); ok && impl != m {
			impls = append(impls, impl)
		}
	}
	r.ifaceImpl[m] = impls
	return impls
}

// callsIn walks one function body and returns its resolved calls in source
// order.
func (r *resolver) callsIn(fn *Func) []Call {
	info := fn.Pkg.TypesInfo
	var calls []Call

	// selIdents collects the Sel identifier of every selector expression so
	// the bare-identifier pass below does not double-count method names,
	// and callFuns the (unparenthesised) callee expression of every call so
	// references already counted as calls are not recounted as values.
	selIdents := make(map[*ast.Ident]bool)
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			selIdents[e.Sel] = true
		case *ast.CallExpr:
			callFuns[ast.Unparen(e.Fun)] = true
		}
		return true
	})

	add := func(pos token.Pos, callee *types.Func, viaIface bool) {
		if callee == nil {
			return
		}
		calls = append(calls, Call{Pos: pos, Callee: callee, ViaInterface: viaIface})
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			r.resolve(info, ast.Unparen(e.Fun), e.Lparen, add)
		case *ast.SelectorExpr:
			if !callFuns[e] {
				r.resolve(info, e, e.Pos(), add) // method/function value reference
			}
		case *ast.Ident:
			if callFuns[e] || selIdents[e] {
				return true
			}
			if obj, ok := info.Uses[e].(*types.Func); ok {
				add(e.Pos(), obj, false) // function value reference
			}
		}
		return true
	})
	return calls
}

// resolve resolves one callee expression (identifier or selector) and emits
// the call edges for it.
func (r *resolver) resolve(info *types.Info, fun ast.Expr, pos token.Pos, add func(token.Pos, *types.Func, bool)) {
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[f].(*types.Func); ok {
			add(pos, obj, false)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			add(pos, m, false)
			if types.IsInterface(sel.Recv()) {
				for _, impl := range r.implementations(m) {
					add(pos, impl, true)
				}
			}
			return
		}
		// Qualified identifier (pkg.Fn) or type conversion selector.
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			add(pos, obj, false)
		}
	}
}

// directives parses the hotpath/coldpath doc-comment markers.
func directives(fd *ast.FuncDecl) (hot, cold bool, coldReason string) {
	if fd.Doc == nil {
		return false, false, ""
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == HotpathDirective {
			hot = true
		}
		if rest, ok := strings.CutPrefix(text, ColdpathDirective); ok {
			cold = true
			coldReason = strings.TrimSpace(rest)
		}
	}
	return hot, cold, coldReason
}

// DisplayName renders a function for call-chain diagnostics:
// "cpu.(*Core).fetch" for pointer-receiver methods, "mem.NewSystem" for
// package functions.
func DisplayName(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name() + "."
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, n.Obj().Name(), f.Name())
		}
	}
	return pkg + f.Name()
}

// Entry is one function in the hotpath closure.
type Entry struct {
	Fn *Func
	// Root marks a //portlint:hotpath-annotated function.
	Root bool
	// Chain is the call chain of display names from a root (first element)
	// to this function (last element); a root's chain has one element. The
	// breadth-first search makes it a shortest chain, and the
	// deterministic visit order makes it the same chain every run.
	Chain []string
}

// Closure is the transitive hotpath closure: every function reachable from
// a //portlint:hotpath root through packages in scope, stopping at
// //portlint:coldpath functions.
type Closure struct {
	graph   *Graph
	entries map[string]*Entry // keyed by types.Func.FullName
	order   []*Entry
}

// HotpathClosure computes the closure. scopePackages lists the import paths
// propagation may enter; the packages containing the roots themselves are
// always in scope, so fixtures and scratch modules need no configuration.
func (g *Graph) HotpathClosure(scopePackages []string) *Closure {
	cl := &Closure{graph: g, entries: make(map[string]*Entry)}
	scope := make(map[string]bool, len(scopePackages))
	for _, p := range scopePackages {
		scope[p] = true
	}

	var queue []*Entry
	for _, fn := range g.Funcs() {
		if fn.Hotpath {
			scope[fn.Pkg.Path] = true
			e := &Entry{Fn: fn, Root: true, Chain: []string{DisplayName(fn.Obj)}}
			cl.entries[fn.Obj.FullName()] = e
			cl.order = append(cl.order, e)
			queue = append(queue, e)
		}
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, call := range cur.Fn.Calls {
			callee := g.Lookup(call.Callee)
			if callee == nil || !scope[callee.Pkg.Path] {
				continue // outside the loaded packages or out of scope
			}
			key := callee.Obj.FullName()
			if callee.Coldpath {
				continue
			}
			if _, ok := cl.entries[key]; ok {
				continue
			}
			chain := make([]string, len(cur.Chain), len(cur.Chain)+1)
			copy(chain, cur.Chain)
			e := &Entry{Fn: callee, Chain: append(chain, DisplayName(callee.Obj))}
			cl.entries[key] = e
			cl.order = append(cl.order, e)
			queue = append(queue, e)
		}
	}
	return cl
}

// Entries returns the closure in deterministic visit order (roots first, in
// source order, then breadth-first).
func (cl *Closure) Entries() []*Entry { return cl.order }
