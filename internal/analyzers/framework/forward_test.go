package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
	"time"
)

// loadSrc parses and type-checks one source file into a framework Package,
// bypassing the go-list loader so framework tests need no module on disk.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing test source: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking test source: %v", err)
	}
	return &Package{ImportPath: "p", Fset: fset, Syntax: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

// funcBodyOf returns the body of the named top-level function.
func funcBodyOf(t *testing.T, pkg *Package, name string) *ast.BlockStmt {
	t.Helper()
	for _, decl := range pkg.Syntax[0].Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	t.Fatalf("no function %q in test source", name)
	return nil
}

// strSet is a powerset State over assigned-variable names, used to exercise
// the solver independently of the taint engine.
type strSet map[string]struct{}

func (s strSet) Join(o State) State {
	out := make(strSet, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	for k := range o.(strSet) {
		out[k] = struct{}{}
	}
	return out
}

func (s strSet) Equal(o State) bool {
	os := o.(strSet)
	if len(s) != len(os) {
		return false
	}
	for k := range s {
		if _, ok := os[k]; !ok {
			return false
		}
	}
	return true
}

// assignedNames implements ForwardProblem: the state is the set of variable
// names assigned on some path reaching the node.
type assignedNames struct{}

func (assignedNames) Entry() State { return make(strSet) }

func (assignedNames) Transfer(n *CFGNode, in State) State {
	out := in.Join(make(strSet)).(strSet)
	for _, pl := range n.Payload {
		if as, ok := pl.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					out[id.Name] = struct{}{}
				}
			}
		}
	}
	return out
}

// TestSolveForwardLoop checks fixpoint convergence on a CFG with a back
// edge: facts established inside the loop body must reach the loop head and
// the exit.
func TestSolveForwardLoop(t *testing.T) {
	pkg := loadSrc(t, `package p
func f() int {
	x := 0
	for i := 0; i < 10; i++ {
		y := i
		x = y
	}
	return x
}`)
	cfg := BuildCFG(funcBodyOf(t, pkg, "f"))
	in := SolveForward(cfg, assignedNames{})
	exit, ok := in[cfg.Exit]
	if !ok {
		t.Fatal("exit node unreached by forward solver")
	}
	got := exit.(strSet)
	for _, want := range []string{"x", "i", "y"} {
		if _, ok := got[want]; !ok {
			t.Errorf("exit state missing %q (loop-body facts must flow around the back edge); got %v", want, got)
		}
	}
}

// TestSolveForwardBranchJoin checks that the join at a merge point is the
// union of both branches.
func TestSolveForwardBranchJoin(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(c bool) int {
	a := 0
	if c {
		b := 1
		a = b
	} else {
		d := 2
		a = d
	}
	return a
}`)
	cfg := BuildCFG(funcBodyOf(t, pkg, "f"))
	in := SolveForward(cfg, assignedNames{})
	got := in[cfg.Exit].(strSet)
	for _, want := range []string{"a", "b", "d"} {
		if _, ok := got[want]; !ok {
			t.Errorf("merge state missing %q: join must union both branches; got %v", want, got)
		}
	}
}

// divergent is an adversarial State whose Join always strictly grows — an
// infinite-ascending-chain lattice. The solver's widening guard must still
// terminate on a loop CFG.
type divergent int

func (d divergent) Join(o State) State {
	od := o.(divergent)
	if od > d {
		d = od
	}
	return d + 1
}
func (d divergent) Equal(o State) bool { return false }

type divergentProblem struct{}

func (divergentProblem) Entry() State                        { return divergent(0) }
func (divergentProblem) Transfer(n *CFGNode, in State) State { return in.(divergent) + 1 }

// TestSolveForwardWideningGuard: with a never-converging lattice on a loop,
// SolveForward must return (visit cap) instead of spinning forever.
func TestSolveForwardWideningGuard(t *testing.T) {
	pkg := loadSrc(t, `package p
func f() {
	for {
		_ = 1
	}
}`)
	cfg := BuildCFG(funcBodyOf(t, pkg, "f"))
	done := make(chan struct{})
	go func() {
		SolveForward(cfg, divergentProblem{})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SolveForward did not terminate on a divergent lattice; widening guard broken")
	}
}
