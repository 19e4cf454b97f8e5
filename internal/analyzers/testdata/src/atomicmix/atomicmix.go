// Package atomicmix is the analysis fixture for the atomicmix analyzer:
// atomically accessed memory lives in sync/atomic's typed atomics, reached
// only through their methods.
package atomicmix

import "sync/atomic"

// hits is a plain word made atomic by address: nothing stops another line
// from writing hits++ beside the atomic increment.
var hits uint64

func recordHit() {
	atomic.AddUint64(&hits, 1) // want `atomic\.AddUint64 works on the address of a plain word`
}

type counter struct {
	n    atomic.Int64
	ptr  atomic.Pointer[counter]
	last atomic.Value // want `atomic\.Value is copied without a go vet report`
}

// A whole-value store to a typed atomic is a plain store, and copylocks
// lets it through because the right side is a literal.
func (c *counter) clear() {
	c.n = atomic.Int64{} // want `whole-value assignment to typed atomic c\.n`
}

// Method calls are the atomic accesses the types exist for.
func (c *counter) bump() int64 {
	c.ptr.Store(c)
	return c.n.Add(1)
}

// Declaring and constructing are not accesses: the memory is not yet
// reachable from another goroutine.
func fresh() *counter {
	var total atomic.Int64
	local := atomic.Uint32{}
	local.Add(1)
	total.Store(int64(local.Load()))
	return &counter{ptr: atomic.Pointer[counter]{}}
}
