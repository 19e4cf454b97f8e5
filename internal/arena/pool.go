package arena

import (
	"os"

	"skyway/internal/freelist"
)

// mappings is the process-wide pool of segment mappings. A released or
// discarded segment's mapping waits here inaccessible (PROT_NONE, so a view
// kept past Release still faults) until Stage takes it for another segment:
// a steady stream of segments lands in pages that are already mapped and
// resident instead of faulting in a fresh mapping each time. A mapping is
// reused only for a segment at least half its size.
//
// The pool never holds more bytes than the process's high-water of arena
// bytes in use at once (staged or committed), so dropping a runtime — there
// is no Runtime.Close — strands at most one peak's worth, which the next
// runtime reuses.
var mappings = freelist.List{
	Alloc:  mmapAnon,
	Reopen: func(m []byte) error { return protect(m, true) },
	Park:   func(m []byte) error { return protect(m, false) },
	Free:   munmap,
	MaxFit: 2,
}

var pageSize = os.Getpagesize()

// mapSegment returns an n-byte view of a whole pooled or fresh mapping (its
// capacity); mappings.Put takes the view back.
func mapSegment(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	m, err := mappings.Get((n + pageSize - 1) / pageSize * pageSize)
	if err != nil {
		return nil, err
	}
	return m[:n], nil
}
