package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"skyway/internal/analyzers/framework"
)

// WriteBarrier flags direct Heap.Store calls outside the collector layers
// that can write a reference slot without dirtying its card. The card table
// is the scavenger's remembered set: an old-to-young edge stored without
// DirtyCard is invisible to the next scavenge, which then frees (or moves
// without retargeting) a live young object — silent corruption. A store is
// flagged when its kind operand is the klass.Ref constant, or when the kind
// is not a compile-time constant (a dynamic field/element kind that could
// be Ref at run time), unless the enclosing function declaration also calls
// DirtyCard/DirtyRange or a refBarrier helper. Heap.StorePrim is not
// watched: it panics on klass.Ref.
var WriteBarrier = &framework.Analyzer{
	Name: "writebarrier",
	Doc: "flag Heap.Store calls that can write a reference slot without the " +
		"card-dirtying write barrier; use Runtime.SetRef/SetRaw or pair the store " +
		"with DirtyCard/DirtyRange",
	Run: runWriteBarrier,
}

func runWriteBarrier(p *framework.Pass) error {
	if exemptPkg(p) {
		return nil
	}
	refVal := lookupConst(p.Pkg, "skyway/internal/klass", "Ref")
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if callsBarrier(p, fd.Body) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 3 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !isHeapMethod(p.TypesInfo.Selections[sel], "Store") {
					return true
				}
				kind := call.Args[2]
				tv, ok := p.TypesInfo.Types[kind]
				if !ok {
					return true
				}
				switch {
				case tv.Value == nil:
					p.Reportf(call.Pos(),
						"Heap.Store with a non-constant kind may write a reference slot without the card-table write barrier; use Heap.StorePrim for a slot that must be primitive, Runtime.SetRaw/SetRef, or pair the store with DirtyCard/DirtyRange")
				case refVal != nil && constant.Compare(tv.Value, token.EQL, refVal):
					p.Reportf(call.Pos(),
						"reference store through Heap.Store bypasses the card-table write barrier; use Runtime.SetRef or pair the store with DirtyCard/DirtyRange")
				}
				return true
			})
		}
	}
	return nil
}

// callsBarrier reports whether body contains a call to one of the
// card-dirtying entry points: Heap.DirtyCard, Heap.DirtyRange, or any
// function or method named refBarrier.
func callsBarrier(p *framework.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			sel := p.TypesInfo.Selections[fun]
			if isHeapMethod(sel, "DirtyCard") || isHeapMethod(sel, "DirtyRange") ||
				fun.Sel.Name == "refBarrier" {
				found = true
			}
		case *ast.Ident:
			if fun.Name == "refBarrier" {
				found = true
			}
		}
		return true
	})
	return found
}

// lookupConst resolves a named constant's value from the type-checked
// import graph (the package itself or any transitive import), or nil.
func lookupConst(pkg *types.Package, path, name string) constant.Value {
	seen := make(map[*types.Package]bool)
	var find func(p *types.Package) constant.Value
	find = func(p *types.Package) constant.Value {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			if c, ok := p.Scope().Lookup(name).(*types.Const); ok {
				return c.Val()
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if v := find(imp); v != nil {
				return v
			}
		}
		return nil
	}
	return find(pkg)
}
