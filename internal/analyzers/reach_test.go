package analyzers_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"testing"

	"skyway/internal/analyzers/framework"
)

// The reachability gate: every function and method in the production tree
// must be reachable from a binary or from the public API, or be listed in
// unreachedSurvivors with the reason it stays. Code only tests call is a
// second copy of behaviour no program has; the gate keeps it from building
// up again after a sweep.

// unreachedSurvivors maps each function the walk cannot reach, by
// types.Func.FullName, to why it stays. The list only shrinks:
// TestNoUnreachedCode fails on an unreached function missing here, on an entry
// that is reached again or no longer exists, and above survivorCeiling.
var unreachedSurvivors = map[string]string{
	"skyway/internal/transport/tcp/tcptest.Start": "the loopback cluster the tcp, transport, dataflow and batch tests share; tcp's own tests need it, so it cannot live in a _test.go file",

	"skyway/internal/fault.Catalog":     "the failpoint list the chaos matrix iterates",
	"skyway/internal/fault.Seed":        "replays a chaos schedule from a test; SKYWAY_FAULT_SEED is the process-wide form",
	"skyway/internal/fault.Fired":       "how the chaos and ladder tests assert that a failpoint fired",
	"skyway/internal/verify.SetEnabled": "the test-side SKYWAY_VERIFY: arms the heap verifier around NewRuntime",

	"(*skyway/internal/transport/tcp.Server).Stored": "the leak check of the TCP broadcast test: every block dropped once decoded",

	"skyway/internal/transport/tcp.DiscoverTransport": "the driver half of skywayd -executor, which make cluster-test runs",
	"(*skyway/internal/registry.TCPClient).Peers":     "PEERS, polled by DiscoverTransport",
	"(skyway/internal/registry.InProc).Peers":         "PEERS on the in-process registry, polled by DiscoverTransport in make cluster-test",
	"(skyway/internal/registry.InProc).Announce":      "ANNOUNCE on the in-process registry, the other half of registry.PeerClient",

	"(*skyway/internal/dataflow.Cluster).Broadcast": "the §2.1 closure path, which TestBroadcastOverTCP runs; no binary measures it yet",
}

// survivorCeiling is len(unreachedSurvivors). Like allowCeiling it goes down,
// not up: raise it only with the new entry's reason in review.
const survivorCeiling = 11

// stdMethodNames are methods the standard library calls through its own
// interfaces (fmt, io, sort, container/heap, errors, net/http, flag,
// encoding). Those calls happen in bodies the walk never loads, so a method
// with one of these names counts as reached, the same rule the framework's
// gcMethodNames applies to interface calls.
var stdMethodNames = []string{
	"Error", "Unwrap", "Is", "As", "Timeout", "Temporary",
	"String", "GoString", "Format",
	"Read", "Write", "Close", "ReadByte", "WriteByte", "UnreadByte",
	"WriteString", "ReadFrom", "WriteTo", "ReadAt", "WriteAt", "Seek",
	"Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "Set",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// reachWalk is a conservative reachability walk over typed syntax. Functions
// are keyed by FullName: a use from another package resolves to the object
// imported from export data, never to the one checked from source.
type reachWalk struct {
	bodies  map[string][]body   // every function or method with a body
	methods map[string][]string // method name → FullNames declaring it
	reached map[string]bool
	byName  map[string]bool // method names that resolve by name
	queue   []string
}

// body is a piece of syntax the walk scans, with its package's type
// information.
type body struct {
	info *types.Info
	node ast.Node
}

// unreached returns, sorted, the FullName of every function and method in
// pkgs that no root reaches. The roots are every main and init, every
// package-level var initializer, every exported function of package api, and
// transitively the exported methods of every type api exposes through an
// alias or an exported signature.
func unreached(pkgs []*framework.Package, api string) []string {
	w := &reachWalk{
		bodies:  make(map[string][]body),
		methods: make(map[string][]string),
		reached: make(map[string]bool),
		byName:  make(map[string]bool),
	}
	var roots []body
	for _, p := range pkgs {
		for _, f := range p.Syntax {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					b := body{p.TypesInfo, d.Body}
					// Several inits share one FullName: walk each as a root.
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Types.Name() == "main") {
						roots = append(roots, b)
						continue
					}
					key := p.TypesInfo.Defs[d.Name].(*types.Func).FullName()
					w.bodies[key] = append(w.bodies[key], b)
					if d.Recv != nil {
						w.methods[d.Name.Name] = append(w.methods[d.Name.Name], key)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, body{p.TypesInfo, d})
					}
				}
			}
		}
	}
	for _, name := range stdMethodNames {
		w.reachName(name)
	}
	for _, p := range pkgs {
		if p.ImportPath != api {
			continue
		}
		exposed := make(map[types.Type]bool)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					w.reach(obj)
					w.expose(obj.Type(), exposed)
				}
			case *types.TypeName:
				if obj.Exported() {
					w.expose(obj.Type(), exposed)
				}
			}
		}
	}
	for _, b := range roots {
		w.scan(b)
	}
	for len(w.queue) > 0 {
		key := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		for _, b := range w.bodies[key] {
			w.scan(b)
		}
	}
	var out []string
	for key := range w.bodies {
		if !w.reached[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// scan reaches every function an identifier in b resolves to: calls, method
// values, function values and generic instantiations alike.
func (w *reachWalk) scan(b body) {
	ast.Inspect(b.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := b.info.Uses[id].(*types.Func); ok {
				w.reach(fn)
			}
		}
		return true
	})
}

// reach marks fn reached. An interface method, a type parameter's included,
// reaches every method of its name.
func (w *reachWalk) reach(fn *types.Func) {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		w.reachName(fn.Name())
		return
	}
	w.reachKey(fn.FullName())
}

func (w *reachWalk) reachName(name string) {
	if w.byName[name] {
		return
	}
	w.byName[name] = true
	for _, key := range w.methods[name] {
		w.reachKey(key)
	}
}

func (w *reachWalk) reachKey(key string) {
	if !w.reached[key] {
		w.reached[key] = true
		w.queue = append(w.queue, key)
	}
}

// expose reaches the exported methods of t and, transitively, of every type
// their signatures name. Struct fields do not expose their types.
func (w *reachWalk) expose(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		w.expose(types.Unalias(t), seen)
	case *types.Named:
		ms := types.NewMethodSet(types.NewPointer(t))
		if types.IsInterface(t) {
			ms = types.NewMethodSet(t)
		}
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj().(*types.Func); m.Exported() {
				w.reach(m)
				w.expose(m.Type(), seen)
			}
		}
	case *types.Pointer:
		w.expose(t.Elem(), seen)
	case *types.Slice:
		w.expose(t.Elem(), seen)
	case *types.Array:
		w.expose(t.Elem(), seen)
	case *types.Chan:
		w.expose(t.Elem(), seen)
	case *types.Map:
		w.expose(t.Key(), seen)
		w.expose(t.Elem(), seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				w.expose(tup.At(i).Type(), seen)
			}
		}
	}
}

// TestNoUnreachedCode is the gate over the production tree: the roots are
// every binary and the root package skyway's API.
func TestNoUnreachedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	found := make(map[string]bool)
	for _, key := range unreached(pkgs, "skyway") {
		found[key] = true
		if _, ok := unreachedSurvivors[key]; !ok {
			t.Errorf("%s is reached by no binary and no exported API: delete it, or list it in unreachedSurvivors with the reason it stays", key)
		}
	}
	var stale []string
	for key, reason := range unreachedSurvivors {
		if !found[key] {
			stale = append(stale, key)
		}
		if reason == "" {
			t.Errorf("unreachedSurvivors lists %s without a reason", key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("unreachedSurvivors lists %s, which is now reached or gone: drop the entry", key)
	}
	if n := len(unreachedSurvivors); n != survivorCeiling {
		t.Errorf("%d unreachedSurvivors, survivorCeiling %d: the ceiling moves only down, with the list", n, survivorCeiling)
	}
}

// TestReachWalkFixture holds the walk to its edge rules on a two-package
// fixture: each way package reach reaches into package lib must count, and a
// helper only lib's own test calls must not.
func TestReachWalkFixture(t *testing.T) {
	root := fixtureRoot + "reach"
	pkgs, err := framework.Load(".", root, root+"/lib")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	want := []string{root + "/lib.onlyTested"}
	if got := unreached(pkgs, root); !slices.Equal(got, want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}
}
