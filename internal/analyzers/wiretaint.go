package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"skyway/internal/analyzers/framework"
)

// WireTaint tracks integers read off the wire — binary.*Endian.Uint*,
// varint decodes, single-byte reads, and (in the decode layer) header words
// loaded from not-yet-validated chunk images — and flags any such value
// flowing into a size-like sink (make, slice indexing, heap address
// arithmetic, Runtime.NewArray, heap copy/alloc lengths) without a
// dominating full-width bounds comparison. A comparison against a TRUNCATED
// conversion does not sanitize: `uint32(n) > limit` with n an int64 is
// exactly the wrap pattern that let a crafted segment header oversize a
// decode buffer (fixed in internal/core/reader.go by widening the check to
// uint64). The analysis is interprocedural through parameter→return
// summaries, so a helper that returns a wire read taints its callers.
var WireTaint = &framework.Analyzer{
	Name: "wiretaint",
	Doc: "flag wire-derived integers (binary.*Endian.Uint*, varints, unvalidated " +
		"header words) reaching allocation sizes, slice indices, or heap address " +
		"arithmetic without a dominating full-width bounds check; comparisons of a " +
		"truncated conversion (uint32(n) on an int64) do not sanitize — widen the " +
		"check (uint64) instead",
	NeedsModule: true,
	Run:         runWireTaint,
}

const vmPkg = "skyway/internal/vm"

// wireTaintConfig defines the source set. Everything decoded by
// encoding/binary is untrusted by definition; byte-at-a-time reads feed
// varint-style framing. Heap header reads (ArrayLen, KlassWord) are only
// sources inside the decode layer (corePkg), where they walk chunk images
// whose headers came off the network and have not been validated yet —
// everywhere else those words were written by the local allocator.
func wireTaintConfig() framework.TaintConfig {
	return framework.TaintConfig{IsSource: isWireSource}
}

func isWireSource(pkgPath string, info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "encoding/binary":
		// Uint16/Uint32/Uint64 (ByteOrder methods) and the varint family.
		// PutUint*/AppendUint* encode and do not match.
		return strings.HasPrefix(name, "Uint") ||
			name == "Uvarint" || name == "Varint" ||
			name == "ReadUvarint" || name == "ReadVarint"
	case "bufio", "bytes":
		return name == "ReadByte"
	case heapPkg:
		return pkgPath == corePkg && (name == "ArrayLen" || name == "KlassWord")
	}
	return false
}

func runWireTaint(p *framework.Pass) error {
	if exemptPkg(p) {
		return nil
	}
	eng := p.Module.Taint(wireTaintConfig())
	for _, f := range p.Files {
		for _, unit := range framework.Units(f) {
			checkWireFlows(p, eng, unit.Type, unit.Body)
		}
	}
	return nil
}

// checkWireFlows solves the taint flow for one function body and tests
// every sink expression against the state at its CFG node.
func checkWireFlows(p *framework.Pass, eng *framework.TaintEngine, ftype *ast.FuncType, body *ast.BlockStmt) {
	ft := eng.Flow(p.TypesInfo, p.Pkg.Path(), ftype, body)
	// Deferred statements appear both at the defer site and in the exit
	// node's payload; dedupe reports by sink position.
	reported := make(map[token.Pos]bool)
	tainted := func(n *framework.CFGNode, e ast.Expr) bool {
		return ft.OriginsAt(e, n).FromSource()
	}
	for _, n := range ft.Nodes() {
		for _, pl := range n.Payload {
			// A range head's payload is the whole statement, but its body
			// statements are separate nodes — only the range operand is
			// evaluated here.
			if rs, ok := pl.(*ast.RangeStmt); ok {
				pl = rs.X
				if pl == nil {
					continue
				}
			}
			ast.Inspect(pl, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false // its own flow unit
				case *ast.CallExpr:
					checkCallSinks(p, x, reported, func(e ast.Expr) bool { return tainted(n, e) })
				case *ast.IndexExpr:
					if indexableSink(p.TypesInfo, x.X) && tainted(n, x.Index) {
						reportWire(p, reported, x.Index.Pos(), "a slice/array index")
					}
				case *ast.SliceExpr:
					for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
						if b != nil && tainted(n, b) {
							reportWire(p, reported, b.Pos(), "a slice bound")
						}
					}
				case *ast.BinaryExpr:
					if x.Op == token.ADD || x.Op == token.SUB {
						checkAddrArithSink(p, x, reported, func(e ast.Expr) bool { return tainted(n, e) })
					}
				}
				return true
			})
		}
	}
}

// wireSinkArgs maps heap/vm methods to the index of their size or length
// argument. (klass.Extent is not one: it takes the length word as read and
// is itself the full-width check.)
var wireSinkArgs = map[string]map[string]int{
	heapPkg: {
		"Add":         0, // (Addr).Add
		"AllocYoung":  0,
		"AllocOld":    0,
		"AllocBuffer": 0,
		"CopyOut":     1,
		"CopyIn":      1,
		"CopyWords":   2,
		"ZeroWords":   1,
		"DirtyRange":  1,
	},
	vmPkg: {"NewArray": 1, "MustNewArray": 1},
}

func checkCallSinks(p *framework.Pass, call *ast.CallExpr, reported map[token.Pos]bool, tainted func(ast.Expr) bool) {
	// Builtin make: every size/capacity argument is a sink.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" {
			for _, arg := range call.Args[1:] {
				if tainted(arg) {
					reportWire(p, reported, arg.Pos(), "a make size/capacity")
				}
			}
			return
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	argIdx, ok := wireSinkArgs[fn.Pkg().Path()][fn.Name()]
	if !ok || argIdx >= len(call.Args) {
		return
	}
	if tainted(call.Args[argIdx]) {
		reportWire(p, reported, call.Args[argIdx].Pos(),
			"the "+fn.Name()+" size argument")
	}
}

// checkAddrArithSink flags `addr + n` / `addr - n` where one operand is a
// heap.Addr and the other carries wire taint — the ad-hoc form of Addr.Add.
func checkAddrArithSink(p *framework.Pass, x *ast.BinaryExpr, reported map[token.Pos]bool, tainted func(ast.Expr) bool) {
	check := func(addrSide, offSide ast.Expr) {
		if t := p.TypesInfo.TypeOf(addrSide); t != nil && isHeapAddr(t) && tainted(offSide) {
			reportWire(p, reported, offSide.Pos(), "heap address arithmetic")
		}
	}
	check(x.X, x.Y)
	check(x.Y, x.X)
}

// indexableSink reports whether e is a slice, array, or string — map keys
// are not size-like and cannot go out of bounds.
func indexableSink(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

func reportWire(p *framework.Pass, reported map[token.Pos]bool, pos token.Pos, sink string) {
	if reported[pos] {
		return
	}
	reported[pos] = true
	p.Reportf(pos,
		"wire-derived value reaches %s without a dominating full-width bounds check; a crafted length can wrap or oversize here — validate it widened, e.g. uint64 against a limit, first",
		sink)
}
