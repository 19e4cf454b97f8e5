// Package lib holds the cases of the reachability walk's fixture. Package
// reach, the fixture's API root, reaches each function here only the one way
// its comment names; onlyTested is reached by nothing but lib_test.go.
package lib

// Shape is the interface reach calls Area through.
type Shape interface{ Area() int }

// Square's Area is reached only through Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Counter's Inc is reached only as a method value passed to Each.
type Counter struct{ N int }

func (c *Counter) Inc() { c.N++ }

// Each calls f n times.
func Each(n int, f func()) {
	for i := 0; i < n; i++ {
		f()
	}
}

// Hook holds stored, the only reference to it.
var Hook = stored

func stored() int { return 7 }

// Map is reached only as an instantiation in package reach.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Base's Name is reached only as a method promoted into Derived.
type Base struct{}

func (Base) Name() string { return "base" }

// Derived embeds Base.
type Derived struct{ Base }

// Label's String is reached only by fmt, through fmt.Stringer.
type Label int

func (l Label) String() string { return "label" }

// onlyTested is called by lib_test.go and by nothing else.
func onlyTested() int { return 1 }
