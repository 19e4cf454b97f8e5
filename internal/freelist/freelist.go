// Package freelist recycles large byte buffers — the TCP transport's block
// buffers and the arena's segment mappings — so that steady rounds land
// received bytes in memory that is already mapped and warm instead of in a
// fresh allocation whose every page faults on first touch.
//
// A List never holds more bytes than the high-water of bytes its owner has
// had in use at once: recycling costs at most one more peak working set,
// and a list that is dropped or drained gives its buffers back.
package freelist

import (
	"slices"
	"sync"

	"skyway/internal/race"
)

// Poison is the byte a recycled buffer is filled with under the race
// detector, so a reader that keeps a view past the buffer's lifetime, or
// assumes fresh memory is zero, breaks the race suite's digests.
const Poison = 0xDB

// List is a best-fit free list. Its size unit is a buffer's capacity. The
// zero List is ready to use and recycles Go-allocated buffers.
type List struct {
	// Alloc makes a fresh buffer of n bytes when no listed one fits; nil
	// means make.
	Alloc func(n int) ([]byte, error)
	// Reopen readies a listed buffer for reuse, Park makes a returned
	// buffer inaccessible before it is listed, and Free disposes of one
	// the list evicts or refuses. Each may be nil.
	Reopen, Park func([]byte) error
	Free         func([]byte)
	// MaxFit, when positive, refuses a listed buffer more than MaxFit
	// times the size asked for, sparing large buffers for large requests.
	MaxFit int

	mu   sync.Mutex
	free [][]byte // ascending capacity
	// held is the capacity listed; inUse the capacity handed out and not
	// yet returned, and peak its high-water.
	held, inUse, peak int
}

// Get returns an n-byte buffer: the smallest listed one that fits, else a
// fresh one. A recycled buffer's contents are undefined.
func (l *List) Get(n int) ([]byte, error) {
	l.mu.Lock()
	i, _ := slices.BinarySearchFunc(l.free, n, func(b []byte, n int) int { return cap(b) - n })
	var b []byte
	if i < len(l.free) && (l.MaxFit <= 0 || cap(l.free[i]) <= l.MaxFit*n) {
		b = l.free[i]
		l.free = slices.Delete(l.free, i, i+1)
		l.held -= cap(b)
	}
	l.mu.Unlock()
	switch {
	case b != nil:
		if err := l.reopen(b); err != nil {
			return nil, err
		}
	case l.Alloc != nil:
		var err error
		if b, err = l.Alloc(n); err != nil {
			return nil, err
		}
	default:
		b = make([]byte, n)
	}
	l.mu.Lock()
	l.inUse += cap(b)
	l.peak = max(l.peak, l.inUse)
	l.mu.Unlock()
	return b[:n], nil
}

// Put takes back a buffer Get returned. Past the cap, smaller listed
// buffers are evicted to make room for it, or it is refused: the list keeps
// the largest buffers, which fit any request a smaller one would.
func (l *List) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	keep := l.Park == nil || l.Park(b) == nil
	var evicted [][]byte
	l.mu.Lock()
	l.inUse -= cap(b)
	for keep && len(l.free) > 0 && l.held+cap(b) > l.peak && cap(l.free[0]) < cap(b) {
		evicted = append(evicted, l.free[0])
		l.held -= cap(l.free[0])
		l.free = slices.Delete(l.free, 0, 1)
	}
	if keep = keep && l.held+cap(b) <= l.peak; keep {
		i, _ := slices.BinarySearchFunc(l.free, cap(b), func(f []byte, n int) int { return cap(f) - n })
		l.free = slices.Insert(l.free, i, b)
		l.held += cap(b)
	} else {
		evicted = append(evicted, b)
	}
	l.mu.Unlock()
	for _, e := range evicted {
		l.free1(e)
	}
}

// Drain disposes of every listed buffer.
func (l *List) Drain() {
	l.mu.Lock()
	free := l.free
	l.free, l.held = nil, 0
	l.mu.Unlock()
	for _, b := range free {
		l.free1(b)
	}
}

// reopen readies a listed buffer for reuse, and under the race detector
// poisons it; a buffer that cannot be reopened is disposed of.
func (l *List) reopen(b []byte) error {
	if l.Reopen != nil {
		if err := l.Reopen(b); err != nil {
			l.free1(b)
			return err
		}
	}
	if race.Enabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = Poison
		}
	}
	return nil
}

func (l *List) free1(b []byte) {
	if l.Free != nil {
		l.Free(b)
	}
}
