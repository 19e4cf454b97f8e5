package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file implements the module-wide taint engine on top of the forward
// solver (forward.go): an origins lattice per variable, a transfer function
// over the statement-granular CFG, and interprocedural parameter→return
// summaries computed to a fixpoint over the Module call graph. The policy —
// which calls are sources, which expressions are sinks — belongs to the
// analyzers (wiretaint); the engine only answers "where may this value come
// from at this node".

// Origins is a bitset describing where a value may come from: OriginSource
// marks data derived from an untrusted wire read; bit i < MaxTaintParams
// marks flow from the enclosing function's i-th parameter (the currency of
// interprocedural summaries).
type Origins uint64

const (
	// OriginSource marks a value derived from an untrusted wire read.
	OriginSource Origins = 1 << 63
	// MaxTaintParams is how many leading parameters a summary tracks;
	// later parameters simply never carry taint through a summary.
	MaxTaintParams = 62
)

// FromSource reports whether the value may derive from a wire read.
func (o Origins) FromSource() bool { return o&OriginSource != 0 }

func paramBit(i int) Origins {
	if i < 0 || i >= MaxTaintParams {
		return 0
	}
	return Origins(1) << uint(i)
}

// TaintState maps a function's variables to the origins their current
// value may have. Variables absent from the map are untainted. It is the
// powerset-lattice State of the forward taint problem: join is pointwise
// bitwise-or, so the lattice height is bounded by 64·|vars| and the solver
// terminates without needing its widening guard.
type TaintState map[*types.Var]Origins

// Join implements State by pointwise or-ing the origin sets.
func (s TaintState) Join(other State) State {
	o := other.(TaintState)
	out := make(TaintState, len(s)+len(o))
	for v, bits := range s {
		out[v] = bits
	}
	for v, bits := range o {
		out[v] |= bits
	}
	return out
}

// Equal implements State.
func (s TaintState) Equal(other State) bool {
	o := other.(TaintState)
	if len(s) != len(o) {
		return false
	}
	for v, bits := range s {
		if o[v] != bits {
			return false
		}
	}
	return true
}

func (s TaintState) clone() TaintState {
	out := make(TaintState, len(s))
	for v, bits := range s {
		out[v] = bits
	}
	return out
}

// TaintConfig parameterizes the engine with the source policy. Sanitization
// is fixed: a relational bounds comparison that mentions a variable at its
// full width (see killFullWidth) clears the variable's taint.
type TaintConfig struct {
	// IsSource reports whether call, appearing in the package with import
	// path pkgPath, reads untrusted wire data. Every non-error result of a
	// source call is tainted.
	IsSource func(pkgPath string, info *types.Info, call *ast.CallExpr) bool
}

// TaintSummary is one function's interprocedural fact: Results[i] holds the
// origins of the i-th result expressed in the caller's terms — OriginSource
// survives as-is, and param bit j means "result i is tainted whenever the
// caller's j-th argument is".
type TaintSummary struct {
	Results []Origins
}

func (a TaintSummary) equal(b TaintSummary) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// TaintEngine holds the module's computed summaries plus the source policy
// they were computed under.
type TaintEngine struct {
	module *Module
	config TaintConfig
	sums   map[*types.Func]TaintSummary
	cfgs   map[*ast.BlockStmt]*CFG // CFGs are reusable across fixpoint rounds
}

// Taint returns the module's taint engine under config, computing the
// parameter→return summary fixpoint on first use. The engine is cached on
// the Module: one source policy per run (wiretaint is the sole client).
func (m *Module) Taint(config TaintConfig) *TaintEngine {
	if m.taint != nil {
		return m.taint
	}
	t := &TaintEngine{
		module: m,
		config: config,
		sums:   make(map[*types.Func]TaintSummary),
		cfgs:   make(map[*ast.BlockStmt]*CFG),
	}
	// Chaotic iteration to a fixpoint: summaries only grow (origins are
	// or-accumulated), so this terminates; the repo's taint chains are
	// shallow, so it converges in a handful of rounds.
	for changed := true; changed; {
		changed = false
		for fn, fb := range m.bodies {
			s := t.summarize(fn, fb)
			if !s.equal(t.sums[fn]) {
				t.sums[fn] = s
				changed = true
			}
		}
	}
	m.taint = t
	return t
}

// summarize runs the intraprocedural flow for fn with parameters seeded to
// their param bits and joins the origins of every return site.
func (t *TaintEngine) summarize(fn *types.Func, fb funcBody) TaintSummary {
	sig := fn.Type().(*types.Signature)
	nres := sig.Results().Len()
	sum := TaintSummary{Results: make([]Origins, nres)}
	if nres == 0 || fb.decl.Body == nil {
		return sum
	}
	ft := t.Flow(fb.pkg.TypesInfo, fb.pkg.ImportPath, fb.decl.Type, fb.decl.Body)

	// Named results receive values from bare returns and live to function
	// exit; resolve their vars once.
	var resultVars []*types.Var
	if res := fb.decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				v, _ := fb.pkg.TypesInfo.Defs[name].(*types.Var)
				resultVars = append(resultVars, v)
			}
		}
	}

	for _, n := range ft.cfg.Nodes {
		st := ft.stateAt(n)
		if st == nil {
			continue // unreachable
		}
		for _, pl := range n.Payload {
			ret, ok := pl.(*ast.ReturnStmt)
			if !ok {
				continue
			}
			switch {
			case len(ret.Results) == 0:
				for i, v := range resultVars {
					if v != nil && i < nres {
						sum.Results[i] |= st[v]
					}
				}
			case len(ret.Results) == nres:
				for i, e := range ret.Results {
					sum.Results[i] |= ft.origins(e, st)
				}
			case len(ret.Results) == 1 && nres > 1:
				// return f() forwarding a multi-result call.
				if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
					rs := ft.callResults(call, st)
					for i := 0; i < nres && i < len(rs); i++ {
						sum.Results[i] |= rs[i]
					}
				}
			}
		}
	}
	return sum
}

// FuncTaint is the solved taint flow of one function body: the CFG and the
// state at each node's entry.
type FuncTaint struct {
	cfg     *CFG
	in      map[*CFGNode]State
	eng     *TaintEngine
	info    *types.Info
	pkgPath string
}

// Flow solves the forward taint problem for one function (or function
// literal) body in the package identified by info/pkgPath. Parameters are
// seeded with their param bits, so the same flow serves both summarization
// and source checking — a checker only inspects the OriginSource bit.
func (t *TaintEngine) Flow(info *types.Info, pkgPath string, ftype *ast.FuncType, body *ast.BlockStmt) *FuncTaint {
	cfg := t.cfgs[body]
	if cfg == nil {
		cfg = BuildCFG(body)
		t.cfgs[body] = cfg
	}
	entry := make(TaintState)
	if ftype != nil && ftype.Params != nil {
		i := 0
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					if bit := paramBit(i); bit != 0 {
						entry[v] = bit
					}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++ // unnamed parameter still occupies a position
			}
		}
	}
	ft := &FuncTaint{cfg: cfg, eng: t, info: info, pkgPath: pkgPath}
	ft.in = SolveForward(cfg, &taintProblem{ft: ft, entry: entry})
	return ft
}

// Nodes returns the CFG nodes of the flow, in build order.
func (ft *FuncTaint) Nodes() []*CFGNode { return ft.cfg.Nodes }

// stateAt returns the taint state at n's entry, or nil if unreachable.
func (ft *FuncTaint) stateAt(n *CFGNode) TaintState {
	s, ok := ft.in[n]
	if !ok {
		return nil
	}
	return s.(TaintState)
}

// OriginsAt evaluates the origins of e in the state at node n's entry.
// Returns 0 for nodes the solver never reached.
func (ft *FuncTaint) OriginsAt(e ast.Expr, n *CFGNode) Origins {
	st := ft.stateAt(n)
	if st == nil {
		return 0
	}
	return ft.origins(e, st)
}

// taintProblem adapts FuncTaint to the forward solver.
type taintProblem struct {
	ft    *FuncTaint
	entry TaintState
}

func (p *taintProblem) Entry() State { return p.entry }

func (p *taintProblem) Transfer(n *CFGNode, in State) State {
	st := in.(TaintState).clone()
	for _, pl := range n.Payload {
		p.ft.apply(pl, st)
	}
	return st
}

// apply mutates st with the effect of one payload element.
func (ft *FuncTaint) apply(pl ast.Node, st TaintState) {
	switch s := pl.(type) {
	case *ast.AssignStmt:
		compound := s.Tok != token.ASSIGN && s.Tok != token.DEFINE
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			// Tuple assignment from one multi-result call.
			var rs []Origins
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				rs = ft.callResults(call, st)
			}
			for i, l := range s.Lhs {
				var o Origins
				if i < len(rs) {
					o = rs[i]
				}
				ft.assign(l, o, compound, st)
			}
			return
		}
		// Evaluate every RHS before any assignment lands (a, b = b, a).
		origins := make([]Origins, len(s.Rhs))
		for i, r := range s.Rhs {
			origins[i] = ft.origins(r, st)
		}
		for i, l := range s.Lhs {
			if i < len(origins) {
				ft.assign(l, origins[i], compound, st)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Names) > 1 && len(vs.Values) == 1 {
				var rs []Origins
				if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
					rs = ft.callResults(call, st)
				}
				for i, name := range vs.Names {
					var o Origins
					if i < len(rs) {
						o = rs[i]
					}
					ft.assign(name, o, false, st)
				}
				continue
			}
			for i, name := range vs.Names {
				var o Origins
				if i < len(vs.Values) {
					o = ft.origins(vs.Values[i], st)
				}
				ft.assign(name, o, false, st)
			}
		}
	case *ast.RangeStmt:
		xo := ft.origins(s.X, st)
		if s.Key != nil {
			// Over a slice/array/string the key is a synthesized index,
			// not wire data; over a map or channel it is the element.
			ko := xo
			if t, ok := ft.info.Types[s.X]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
					ko = 0
				}
			}
			ft.assign(s.Key, ko, false, st)
		}
		if s.Value != nil {
			ft.assign(s.Value, xo, false, st)
		}
	case *ast.IncDecStmt:
		// x++ keeps x's existing origins.
	case ast.Expr:
		// A condition (if/for/switch guard): bounds comparisons sanitize.
		ft.sanitize(s, st)
	}
}

// assign records origins flowing into one assignment target. Only plain
// identifiers are tracked (strong update); stores through fields, indexes,
// or dereferences leave the state unchanged — the engine does not model the
// heap.
func (ft *FuncTaint) assign(lhs ast.Expr, o Origins, compound bool, st TaintState) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := ft.info.Defs[id]
	if obj == nil {
		obj = ft.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if compound {
		o |= st[v]
	}
	if o == 0 {
		delete(st, v)
	} else {
		st[v] = o
	}
}

// origins evaluates the may-origins of e under st.
func (ft *FuncTaint) origins(e ast.Expr, st TaintState) Origins {
	switch e := e.(type) {
	case *ast.Ident:
		obj := ft.info.Uses[e]
		if obj == nil {
			obj = ft.info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return st[v]
		}
		return 0
	case *ast.ParenExpr:
		return ft.origins(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW { // channel receive: contents unmodelled
			return 0
		}
		return ft.origins(e.X, st)
	case *ast.StarExpr:
		return ft.origins(e.X, st)
	case *ast.TypeAssertExpr:
		return ft.origins(e.X, st)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return 0 // boolean results carry no wire integer
		}
		return ft.origins(e.X, st) | ft.origins(e.Y, st)
	case *ast.CallExpr:
		rs := ft.callResults(e, st)
		if len(rs) == 0 {
			return 0
		}
		return rs[0]
	}
	// Index/selector/composite/literal expressions: container contents and
	// fields are not tracked intraprocedurally.
	return 0
}

// callResults computes the per-result origins of one call under st.
func (ft *FuncTaint) callResults(call *ast.CallExpr, st TaintState) []Origins {
	// Conversion: T(x) keeps x's origins (truncation does NOT sanitize —
	// that is precisely the uint32-wrap bug shape).
	if tv, ok := ft.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []Origins{ft.origins(call.Args[0], st)}
		}
		return nil
	}
	resTypes := ft.resultTypes(call)
	if ft.eng.config.IsSource != nil && ft.eng.config.IsSource(ft.pkgPath, ft.info, call) {
		out := make([]Origins, len(resTypes))
		for i, rt := range resTypes {
			if !isErrorType(rt) {
				out[i] = OriginSource
			}
		}
		return out
	}
	c := resolveCallee(ft.info, call)
	if c.fn == nil {
		return make([]Origins, len(resTypes)) // dynamic/interface/builtin: unmodelled
	}
	sum, ok := ft.eng.sums[c.fn]
	if !ok {
		return make([]Origins, len(resTypes))
	}
	sig, _ := c.fn.Type().(*types.Signature)
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
	}
	out := make([]Origins, len(sum.Results))
	for r, bits := range sum.Results {
		out[r] = bits & OriginSource
		for j := 0; j < nparams && j < MaxTaintParams; j++ {
			if bits&paramBit(j) == 0 {
				continue
			}
			// Argument positions map to parameters; every variadic
			// argument maps to the final parameter.
			for ai, arg := range call.Args {
				pi := ai
				if pi >= nparams {
					pi = nparams - 1
				}
				if pi == j {
					out[r] |= ft.origins(arg, st)
				}
			}
		}
	}
	return out
}

// resultTypes returns the result types of call (empty for void).
func (ft *FuncTaint) resultTypes(call *ast.CallExpr) []types.Type {
	tv, ok := ft.info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		if t == nil || tv.IsVoid() {
			return nil
		}
		return []types.Type{t}
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// sanitize clears the taint of variables validated by a bounds comparison
// in cond. The rule: a relational comparison (< <= > >=) whose operand
// mentions the variable at its full width — no truncating conversion
// between the comparison and the variable — counts as the dominating bounds
// check wiretaint demands. Widening conversions (uint64(n)) qualify;
// truncating ones (uint32(n) of an int) do not, because the comparison then
// constrains only the wrapped value, which is the uint32-wrap bug shape.
// Equality tests and % remainders never sanitize.
func (ft *FuncTaint) sanitize(cond ast.Expr, st TaintState) {
	ast.Inspect(cond, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		b, ok := x.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{b.X, b.Y} {
			width := intWidth(ft.typeOf(side))
			if width == 0 {
				continue
			}
			ft.killFullWidth(side, width, st)
		}
		return true
	})
}

// killFullWidth walks one comparison operand and deletes from st every
// variable whose full value participates in the comparison: the path from
// the operand root to the variable must not pass a conversion narrower than
// the variable's own width.
func (ft *FuncTaint) killFullWidth(e ast.Expr, width int, st TaintState) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := ft.info.Uses[e]
		if v, ok := obj.(*types.Var); ok {
			if w := intWidth(v.Type()); w > 0 && w <= width {
				delete(st, v)
			}
		}
	case *ast.ParenExpr:
		ft.killFullWidth(e.X, width, st)
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			ft.killFullWidth(e.X, width, st)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.REM:
			// n%k constrains only the remainder, not n.
			return
		case token.SHR, token.SHL:
			// A shifted value is not the value itself.
			return
		}
		ft.killFullWidth(e.X, width, st)
		ft.killFullWidth(e.Y, width, st)
	case *ast.CallExpr:
		// Only conversions pass through; a call result is not the var.
		if tv, ok := ft.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			w := intWidth(tv.Type)
			if w > 0 && w < width {
				width = w
			}
			ft.killFullWidth(e.Args[0], width, st)
		}
	}
}

func (ft *FuncTaint) typeOf(e ast.Expr) types.Type {
	if tv, ok := ft.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// intWidth returns the bit width of an integer type (named types resolve
// through their underlying type), or 0 for non-integers.
func intWidth(t types.Type) int {
	if t == nil {
		return 0
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int, types.Uint, types.Uintptr, types.Int64, types.Uint64,
		types.UntypedInt:
		return 64
	case types.Int32, types.Uint32:
		return 32
	case types.Int16, types.Uint16:
		return 16
	case types.Int8, types.Uint8:
		return 8
	}
	return 0
}
