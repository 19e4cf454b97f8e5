package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"skyway/internal/analyzers/framework"
)

// AtomicMix keeps atomic memory behind sync/atomic's value types, where the
// compiler holds the invariant that a word touched atomically is never
// touched plainly: a typed atomic's word is reachable only through its
// methods. Outside internal/heap (whose baddr words are slice elements
// claimed by CAS through its own API) it flags the three ways around that:
//
//   - a package-level sync/atomic function, which takes the address of a
//     plain word that any other line can still load or store plainly;
//   - atomic.Value, which `go vet`'s copylocks does not see copied;
//   - a whole-value assignment to a typed atomic (s.n = atomic.Int64{}),
//     a plain store copylocks lets through because the right side is a
//     literal.
//
// Every other plain access — reading a typed atomic out (return s.n) or
// copying one across (s.p = t.p) — is a lock copy `go vet` reports.
var AtomicMix = &framework.Analyzer{
	Name: "atomicmix",
	Doc: "keep atomically accessed memory in sync/atomic's typed atomics: flag " +
		"package-level sync/atomic functions, atomic.Value and whole-value " +
		"assignments to a typed atomic outside internal/heap",
	Run: runAtomicMix,
}

const atomicPkg = "sync/atomic"

func runAtomicMix(p *framework.Pass) error {
	if exemptPkg(p) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch obj := p.TypesInfo.Uses[n].(type) {
				case *types.Func:
					if obj.Pkg() != nil && obj.Pkg().Path() == atomicPkg && obj.Type().(*types.Signature).Recv() == nil {
						p.Reportf(n.Pos(), "atomic.%s works on the address of a plain word that other code can still load or store plainly; hold the value in a typed atomic (atomic.Int64, atomic.Pointer, ...)", obj.Name())
					}
				case *types.TypeName:
					if obj.Pkg() != nil && obj.Pkg().Path() == atomicPkg && obj.Name() == "Value" {
						p.Reportf(n.Pos(), "atomic.Value is copied without a go vet report; use atomic.Pointer[T]")
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					if t := p.TypesInfo.TypeOf(lhs); t != nil && isTypedAtomic(t) {
						p.Reportf(lhs.Pos(), "whole-value assignment to typed atomic %s is a plain store racing its atomic accesses; use its Store method", types.ExprString(lhs))
					}
				}
			}
			return true
		})
	}
	return nil
}

// isTypedAtomic reports whether t is one of sync/atomic's value types.
func isTypedAtomic(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == atomicPkg
}
