package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file grows the framework from a per-package AST multichecker into an
// interprocedural engine: a module-wide call graph over every loaded
// package's typed syntax, and a transitive mayGC summary over it. Analyzers
// that set NeedsModule receive the Module on their Pass and can ask whether
// any call expression can reach a collection entry point.

// mayGCSeeds are the collection/allocation entry points, keyed by
// types.Func.FullName. The transitive closure normally discovers the vm
// allocators from source (they call Scavenge/FullGC), but fixture packages
// and subset runs only see dependency export data — no bodies — so the
// allocation surface of internal/vm is seeded explicitly too.
var mayGCSeeds = map[string]bool{
	"(*skyway/internal/gc.Collector).Scavenge": true,
	"(*skyway/internal/gc.Collector).FullGC":   true,

	"(*skyway/internal/vm.Runtime).allocYoung":    true,
	"(*skyway/internal/vm.Runtime).New":           true,
	"(*skyway/internal/vm.Runtime).MustNew":       true,
	"(*skyway/internal/vm.Runtime).NewArray":      true,
	"(*skyway/internal/vm.Runtime).MustNewArray":  true,
	"(*skyway/internal/vm.Runtime).NewString":     true,
	"(*skyway/internal/vm.Runtime).MustNewString": true,
}

// callee classifies the target of one call expression.
type callee struct {
	fn      *types.Func  // static target (function or concrete method)
	iface   string       // interface method name, resolved by CHA over the module
	lit     *ast.FuncLit // immediately invoked function literal
	v       *types.Var   // variable the dynamic call goes through, if an identifier
	dynamic bool         // call through a function value: conservatively mayGC
	skip    bool         // not a function call (conversion, builtin)
}

// resolveCallee classifies call using the package's type information.
func resolveCallee(info *types.Info, call *ast.CallExpr) callee {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) wraps the callee in an index expr.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return callee{skip: true} // conversion, e.g. heap.Addr(x)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return callee{fn: obj}
		case *types.Builtin, *types.Nil, nil:
			return callee{skip: true}
		case *types.Var: // local or parameter holding a func value
			return callee{dynamic: true, v: obj}
		default:
			return callee{dynamic: true}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return callee{iface: fn.Name()}
				}
				return callee{fn: fn}
			default: // FieldVal: func-typed struct field
				return callee{dynamic: true}
			}
		}
		// Qualified identifier pkg.F.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return callee{fn: obj}
		case *types.TypeName, *types.Builtin, nil:
			return callee{skip: true}
		default: // package-level func variable
			return callee{dynamic: true}
		}
	case *ast.FuncLit:
		return callee{lit: fun}
	}
	// Anything else producing a func value (index into a slice of funcs,
	// type assertion, call returning a func, ...) is a dynamic call.
	return callee{dynamic: true}
}

// Module holds whole-program facts computed across every loaded package.
type Module struct {
	// calls maps each function with syntax to the callees of its body,
	// function literals included (a literal's calls are merged into the
	// enclosing declaration — the conservative closure treatment).
	calls map[*types.Func][]callee
	// mayGC is the fixpoint: functions that can reach a collection entry
	// point. Seeded functions may not appear here (no body loaded); query
	// through funcMayGC, which also consults mayGCSeeds.
	mayGC map[*types.Func]bool
	// gcMethodNames supports class-hierarchy analysis for interface calls:
	// the names of all known-mayGC methods. An interface call resolves by
	// name against this set — receiver-type matching is deliberately
	// skipped, keeping the analysis conservative.
	gcMethodNames map[string]bool
	// litOf devirtualizes local closures: a function-local variable bound
	// to exactly one function literal (and never aliased) resolves to that
	// literal instead of being treated as an unknown function value.
	litOf map[*types.Var]*ast.FuncLit
	// bodies records every function declaration with loaded syntax so
	// module-wide dataflow passes (the taint summarizer) can revisit the
	// typed ASTs.
	bodies map[*types.Func]funcBody

	// taint caches the module's taint engine; built lazily by Taint()
	// since only analyzers that need summaries pay for the fixpoint.
	taint *TaintEngine
}

// funcBody ties a function declaration to the package it was loaded from.
type funcBody struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// BuildModule computes the call graph and mayGC summary over pkgs. Packages
// outside the loaded set contribute only their seeded entry points; the
// standard library is assumed unable to touch the simulated heap.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		calls:         make(map[*types.Func][]callee),
		mayGC:         make(map[*types.Func]bool),
		gcMethodNames: make(map[string]bool),
		litOf:         make(map[*types.Var]*ast.FuncLit),
		bodies:        make(map[*types.Func]funcBody),
	}
	for _, seed := range []string{"Scavenge", "FullGC", "allocYoung",
		"New", "MustNew", "NewArray", "MustNewArray", "NewString", "MustNewString"} {
		m.gcMethodNames[seed] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.bodies[fn] = funcBody{decl: fd, pkg: pkg}
				lits := localFuncLits(pkg.TypesInfo, fd.Body)
				for v, lit := range lits {
					m.litOf[v] = lit
				}
				var calls []callee
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						c := resolveCallee(pkg.TypesInfo, call)
						// A devirtualized local closure is skipped like a
						// directly invoked literal: its body's calls are
						// already merged into this declaration's list.
						if c.dynamic && c.v != nil && lits[c.v] != nil {
							c = callee{skip: true}
						}
						if !c.skip && c.lit == nil {
							calls = append(calls, c)
						}
					}
					return true
				})
				m.calls[fn] = calls
			}
		}
	}
	// Transitive closure to a fixpoint. The module is small; a quadratic
	// sweep converges in a handful of rounds.
	for changed := true; changed; {
		changed = false
		for fn, calls := range m.calls {
			if m.mayGC[fn] {
				continue
			}
			for _, c := range calls {
				if m.calleeMayGC(c) {
					m.markMayGC(fn)
					changed = true
					break
				}
			}
		}
	}
	return m
}

func (m *Module) markMayGC(fn *types.Func) {
	m.mayGC[fn] = true
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		m.gcMethodNames[fn.Name()] = true
	}
}

func (m *Module) calleeMayGC(c callee) bool {
	switch {
	case c.dynamic:
		return true
	case c.iface != "":
		return m.gcMethodNames[c.iface]
	case c.fn != nil:
		return m.funcMayGC(c.fn)
	}
	return false
}

// funcMayGC reports whether fn can trigger a collection: either its body
// reaches one transitively, or it is a seeded entry point (needed when only
// export data was loaded for fn's package).
func (m *Module) funcMayGC(fn *types.Func) bool {
	return m.mayGC[fn] || mayGCSeeds[fn.FullName()]
}

// CallMayGC reports whether one call expression may trigger a collection,
// along with a printable description of the callee for diagnostics. An
// immediately invoked function literal — or a devirtualized local closure —
// is answered from the literal's own body.
func (m *Module) CallMayGC(info *types.Info, call *ast.CallExpr) (bool, string) {
	return m.callMayGC(info, call, nil)
}

func (m *Module) callMayGC(info *types.Info, call *ast.CallExpr, seen map[*ast.FuncLit]bool) (bool, string) {
	c := resolveCallee(info, call)
	desc := "function literal"
	if c.dynamic && c.v != nil {
		if lit := m.litOf[c.v]; lit != nil {
			desc = "local closure " + c.v.Name()
			c = callee{lit: lit}
		}
	}
	switch {
	case c.skip:
		return false, ""
	case c.lit != nil:
		if seen[c.lit] {
			return false, desc // recursive closure: already being scanned
		}
		if seen == nil {
			seen = make(map[*ast.FuncLit]bool)
		}
		seen[c.lit] = true
		may := false
		ast.Inspect(c.lit.Body, func(n ast.Node) bool {
			if may {
				return false
			}
			if inner, ok := n.(*ast.CallExpr); ok {
				if innerMay, _ := m.callMayGC(info, inner, seen); innerMay {
					may = true
				}
			}
			return true
		})
		return may, desc
	case c.dynamic:
		return true, "function value (assumed to allocate)"
	case c.iface != "":
		return m.gcMethodNames[c.iface], "interface method " + c.iface
	case c.fn != nil:
		return m.funcMayGC(c.fn), strings.TrimPrefix(c.fn.FullName(), "skyway/internal/")
	}
	return false, ""
}

// localFuncLits finds the function-local variables of body bound to exactly
// one function literal: a `var f func(...)` or `f := func(...) {...}`
// followed by no reassignment and no address-taking. Calls through such a
// variable resolve to the literal — the pattern behind every helper-closure
// in the codebase (readUvarint, clearRegion, ...).
func localFuncLits(info *types.Info, body *ast.BlockStmt) map[*types.Var]*ast.FuncLit {
	binds := make(map[*types.Var]int)
	lits := make(map[*types.Var]*ast.FuncLit)
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, _ := obj.(*types.Var)
		return v
	}
	bind := func(lhs, rhs ast.Expr) {
		v := varOf(lhs)
		if v == nil {
			return
		}
		binds[v]++
		if lit, ok := rhs.(*ast.FuncLit); ok && binds[v] == 1 {
			lits[v] = lit
		} else {
			delete(lits, v)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				bind(lhs, rhs)
			}
		case *ast.ValueSpec:
			// A spec without values declares but does not bind, keeping
			// the recursive `var f func(); f = func() {...}` idiom
			// resolvable.
			for i, name := range n.Names {
				if i < len(n.Values) {
					bind(name, n.Values[i])
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := varOf(n.X); v != nil {
					binds[v] += 2 // aliased: disqualify
					delete(lits, v)
				}
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				bind(n.Key, nil)
			}
			if n.Value != nil {
				bind(n.Value, nil)
			}
		}
		return true
	})
	for v := range lits {
		if binds[v] != 1 {
			delete(lits, v)
		}
	}
	return lits
}
