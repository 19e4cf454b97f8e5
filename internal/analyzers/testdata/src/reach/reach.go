// Package reach is the API root of the reachability walk's fixture: Run is
// exported, so it is a root, and it reaches each case in package lib one way.
// Run's signature names no lib type, so no lib method is reached by being
// exposed.
package reach

import (
	"fmt"
	"strconv"

	"skyway/internal/analyzers/testdata/src/reach/lib"
)

// Run exercises every edge rule of the walk.
func Run() string {
	var s lib.Shape = lib.Square{Side: 2}
	c := &lib.Counter{}
	lib.Each(s.Area(), c.Inc)
	names := lib.Map([]int{c.N}, strconv.Itoa)
	return fmt.Sprint(lib.Label(lib.Hook()), names, lib.Derived{}.Name())
}
