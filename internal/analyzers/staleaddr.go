package analyzers

import (
	"go/ast"
	"go/types"

	"skyway/internal/analyzers/framework"
)

// StaleAddr flags a raw heap.Addr whose value is held live across a call
// that may trigger a collection. The copying collector moves objects on
// every scavenge and full GC; only roots — a gc.Handle, a gc.Roots table
// slot — are retargeted, so a plain Addr local observed after a collection
// (one read out of a table with Roots.At included) points at the object's old
// home — HotSpot's "oops live across a safepoint must be in Handles"
// discipline. The check is interprocedural: the framework's module call
// graph decides which calls can reach Scavenge/FullGC or an allocation
// entry point (calls through function values and interface methods resolve
// conservatively). Addresses into pinned buffer space never move; such
// sites carry a //skyway:allow staleaddr justification instead.
var StaleAddr = &framework.Analyzer{
	Name: "staleaddr",
	Doc: "flag heap.Addr values live across calls that may trigger GC; the copying " +
		"collector moves objects, so root them in a gc.Handle (Runtime.Pin) or a " +
		"gc.Roots table and re-derive the address with Handle.Addr / Roots.At " +
		"after the call",
	NeedsModule: true,
	Run:         runStaleAddr,
}

func runStaleAddr(p *framework.Pass) error {
	if exemptPkg(p) {
		return nil
	}
	// Only locals and parameters participate: a field or package variable
	// is re-read from memory at each mention, so statement liveness says
	// nothing about it (Addr-typed fields have their own discipline — see
	// DESIGN.md).
	tracked := func(v *types.Var) bool {
		if v.IsField() || !isHeapAddr(v.Type()) {
			return false
		}
		return v.Pkg() == nil || v.Parent() != v.Pkg().Scope()
	}
	for _, f := range p.Files {
		for _, unit := range framework.Units(f) {
			for _, n := range framework.LivenessOf(unit.Body, p.TypesInfo, tracked) {
				if len(n.Across) == 0 {
					continue
				}
				for _, payload := range n.Payload {
					name := unit.Name
					forEachCallNow(payload, func(call *ast.CallExpr) {
						may, who := p.Module.CallMayGC(p.TypesInfo, call)
						if !may {
							return
						}
						for _, v := range n.Across {
							p.Reportf(call.Pos(),
								"heap.Addr %s is live across the call to %s in %s, which may trigger a collection and move the object; root it in a gc.Handle (Runtime.Pin) or a gc.Roots table and re-derive it with Addr() / At()",
								v.Name(), who, name)
						}
					})
				}
			}
		}
		checkIntraCallOrder(p, f, tracked)
	}
	return nil
}

// forEachCallNow visits the calls in n that execute when n itself does:
// function-literal bodies are skipped (each literal is its own liveness
// unit, and an immediately invoked literal is still seen as the enclosing
// CallExpr), and a deferred call's target runs at function exit, so only
// its argument expressions are visited.
func forEachCallNow(n ast.Node, fn func(*ast.CallExpr)) {
	if d, ok := n.(*ast.DeferStmt); ok {
		forEachCallNow(d.Call.Fun, fn)
		for _, arg := range d.Call.Args {
			forEachCallNow(arg, fn)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(x)
		}
		return true
	})
}

// checkIntraCallOrder catches the within-statement variant the CFG's
// statement granularity misses: in f(a, g(...)) the value of a is loaded
// before g runs, so if g collects, f receives a stale address. Flagged when
// an argument (or the receiver) reads a tracked variable and a later
// argument contains a mayGC call.
func checkIntraCallOrder(p *framework.Pass, f *ast.File, tracked func(*types.Var) bool) {
	readsTracked := func(e ast.Expr) *types.Var {
		var found *types.Var
		ast.Inspect(e, func(x ast.Node) bool {
			if found != nil {
				return false
			}
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := x.(*ast.Ident); ok {
				if v, ok := p.TypesInfo.Uses[id].(*types.Var); ok && tracked(v) {
					found = v
				}
			}
			return true
		})
		return found
	}
	ast.Inspect(f, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Expressions evaluated left to right: receiver, then arguments.
		evaluated := make([]ast.Expr, 0, len(call.Args)+1)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			evaluated = append(evaluated, sel.X)
		}
		evaluated = append(evaluated, call.Args...)
		var pending *types.Var // earliest tracked read so far
		for _, e := range evaluated {
			if pending != nil {
				var gcCall *ast.CallExpr
				forEachCallNow(e, func(inner *ast.CallExpr) {
					if gcCall != nil {
						return
					}
					if may, _ := p.Module.CallMayGC(p.TypesInfo, inner); may {
						gcCall = inner
					}
				})
				if gcCall != nil {
					p.Reportf(gcCall.Pos(),
						"heap.Addr %s is evaluated earlier in this call expression; this operand may trigger a collection, so the callee would receive a stale address — evaluate the allocating expression first or pin the object",
						pending.Name())
					return true // one report per call expression
				}
			}
			if pending == nil {
				pending = readsTracked(e)
			}
		}
		return true
	})
}
