package framework

import (
	"go/ast"
	"go/types"
	"testing"
)

// taintTestConfig marks calls to any function named "wireRead" or
// "wireRead2" as sources, standing in for binary.BigEndian.Uint32 and
// friends so the engine can be tested without real decode code.
func taintTestConfig() TaintConfig {
	return TaintConfig{
		IsSource: func(pkgPath string, info *types.Info, call *ast.CallExpr) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && (id.Name == "wireRead" || id.Name == "wireRead2")
		},
	}
}

const taintSrc = `package p

func wireRead() uint32 { return 0 }
func wireRead2() (uint32, error) { return 0, nil }

// helper: a wire read escaping through a return — the interprocedural case.
func helper() uint32 { return wireRead() }

// add1: pure parameter passthrough.
func add1(n uint32) uint32 { return n + 1 }

// thru: source -> helper -> add1 -> return, two summary hops.
func thru() uint32 { return add1(helper()) }

// clamp: the parameter is bounds-checked at full width, so no origin
// survives to the return.
func clamp(n uint32) uint32 {
	if uint64(n) > 100 {
		return 100
	}
	return n
}

// second: taint positioned on the second parameter only.
func second(a, b uint32) uint32 { return b }

func sinkBad() []byte {
	n := wireRead()
	return make([]byte, n)
}

func sinkGood() []byte {
	n := wireRead()
	if uint64(n) > 64 {
		return nil
	}
	return make([]byte, n)
}

// sinkWrapped reproduces the uint32-wrap shape: the only "check" compares a
// truncated conversion, which must NOT sanitize n.
func sinkWrapped(limit uint32) []byte {
	n := int64(wireRead()) * 8
	if uint32(n) > limit {
		return nil
	}
	return make([]byte, n)
}

func tuple() uint32 {
	n, err := wireRead2()
	if err != nil {
		return 0
	}
	return n
}

// loopFlow: taint must survive the back edge into the loop head.
func loopFlow() uint32 {
	x := uint32(0)
	for i := 0; i < 4; i++ {
		x = wireRead()
	}
	return x
}
`

func taintEngineFor(t *testing.T, src string) (*Package, *TaintEngine) {
	t.Helper()
	pkg := loadSrc(t, src)
	m := BuildModule([]*Package{pkg})
	return pkg, m.Taint(taintTestConfig())
}

func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %q", name)
	}
	return fn
}

// TestTaintSummaries checks the interprocedural parameter→return facts,
// including a two-hop chain through a helper function.
func TestTaintSummaries(t *testing.T) {
	pkg, eng := taintEngineFor(t, taintSrc)
	cases := []struct {
		fn   string
		want Origins
	}{
		{"helper", OriginSource},   // wire read escapes through the return
		{"add1", paramBit(0)},      // pure passthrough
		{"thru", OriginSource},     // source -> helper -> add1 -> return
		{"clamp", 0},               // full-width bounds check sanitizes
		{"second", paramBit(1)},    // flow from the second parameter only
		{"tuple", OriginSource},    // tuple assignment from a source
		{"loopFlow", OriginSource}, // taint around the loop back edge
		{"wireRead", 0},            // the source body itself returns a constant
	}
	for _, c := range cases {
		sum, ok := eng.sums[lookupFunc(t, pkg, c.fn)]
		if !ok {
			t.Errorf("%s: no summary", c.fn)
			continue
		}
		if len(sum.Results) == 0 {
			t.Errorf("%s: summary has no results", c.fn)
			continue
		}
		if sum.Results[0] != c.want {
			t.Errorf("%s: result origins = %#x, want %#x", c.fn, sum.Results[0], c.want)
		}
	}
}

// makeArgOrigins finds the make(...) call in fn and returns the origins of
// its size argument at the node evaluating it.
func makeArgOrigins(t *testing.T, pkg *Package, eng *TaintEngine, fn string) Origins {
	t.Helper()
	var decl *ast.FuncDecl
	for _, d := range pkg.Syntax[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			decl = fd
		}
	}
	if decl == nil {
		t.Fatalf("no function %q", fn)
	}
	ft := eng.Flow(pkg.TypesInfo, pkg.ImportPath, decl.Type, decl.Body)
	for _, n := range ft.Nodes() {
		for _, pl := range n.Payload {
			var got *Origins
			ast.Inspect(pl, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 2 {
					o := ft.OriginsAt(call.Args[1], n)
					got = &o
					return false
				}
				return true
			})
			if got != nil {
				return *got
			}
		}
	}
	t.Fatalf("no make() call found in %q", fn)
	return 0
}

// TestTaintFlowAtSinks drives the checking-phase API: OriginsAt must carry
// the source bit into an unguarded make, drop it after a full-width bounds
// check, and keep it when the only check compares a truncated conversion
// (the PR 5 uint32-wrap shape).
func TestTaintFlowAtSinks(t *testing.T) {
	pkg, eng := taintEngineFor(t, taintSrc)
	if o := makeArgOrigins(t, pkg, eng, "sinkBad"); !o.FromSource() {
		t.Error("sinkBad: make size argument lost its wire taint")
	}
	if o := makeArgOrigins(t, pkg, eng, "sinkGood"); o.FromSource() {
		t.Error("sinkGood: full-width bounds check did not sanitize the make size")
	}
	if o := makeArgOrigins(t, pkg, eng, "sinkWrapped"); !o.FromSource() {
		t.Error("sinkWrapped: a truncated-width comparison must not count as a sanitizer")
	}
}
