package analyzers_test

import (
	"os/exec"
	"strings"
	"testing"
)

// fastPaths are, by package, the functions every typed access to a managed
// object is built from: the exported accessors, each one call to its funnel
// (load, loadElem, storePrim, storeElem), and the primitives and lookups a
// funnel's managed branch consists of. The compiler must report each one
// "can inline". One pushed over the inliner's budget becomes a call of its
// own on every field or element access and gives the accessors' speed back
// with nothing else failing.
var fastPaths = map[string][]string{
	"skyway/internal/heap": {
		"IsArenaAddr", "notNull", "(*Heap).check", "loadKind", "storeKind",
		"(*Heap).Load", "(*Heap).Store", "(*Heap).StorePrim", "(*Heap).KlassWord", "(*Heap).ArrayLen",
		"(*Heap).ArrayHeader", "(*Heap).ElemOffset",
	},
	"skyway/internal/vm": {
		"(*Runtime).KlassAt", "(*Runtime).elemKind", "(*Runtime).mutable", "signExtend",
		"(*Runtime).GetRef", "(*Runtime).GetLong", "(*Runtime).GetInt",
		"(*Runtime).GetBool", "(*Runtime).GetDouble", "(*Runtime).GetRaw",
		"(*Runtime).SetLong", "(*Runtime).SetInt", "(*Runtime).SetBool", "(*Runtime).SetDouble",
		"(*Runtime).ArrayGetRef", "(*Runtime).ArrayGetLong", "(*Runtime).ArrayGetDouble",
		"(*Runtime).ArrayGetChar", "(*Runtime).ArraySetLong", "(*Runtime).ArraySetDouble",
		"(*Runtime).ArraySetChar",
	},
}

// TestFastPathsInline compiles internal/heap and internal/vm with the
// compiler's inlining report (-gcflags=-m) and fails on every fast path the
// report does not call inlinable.
func TestFastPathsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles internal/heap and internal/vm")
	}
	args := []string{"build", "-gcflags=-m"}
	for pkg := range fastPaths {
		args = append(args, pkg)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	// The report comes grouped under one "# <import path>" line per package.
	inlinable := make(map[string]bool)
	var pkg string
	for _, line := range strings.Split(string(out), "\n") {
		if p, ok := strings.CutPrefix(line, "# "); ok {
			pkg = p
		} else if _, fn, ok := strings.Cut(line, ": can inline "); ok {
			inlinable[pkg+" "+fn] = true
		}
	}
	for pkg, fns := range fastPaths {
		for _, fn := range fns {
			if !inlinable[pkg+" "+fn] {
				t.Errorf("%s: %s is over the inlining budget: keep its panics in cold helpers and its arena branch out of line", pkg, fn)
			}
		}
	}
}
