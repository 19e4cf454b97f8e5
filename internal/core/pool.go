package core

import "sync"

// Hot-path buffer recycling. Every segment used to cost at least one fresh
// []byte of segment size: the writer's output buffer. Under a shuffle that is
// the dominant allocation — exactly the "serialization-shaped" GC pressure
// the transfer design is meant to avoid — so output buffers draw from one
// process-wide pool and return on Close. A writer's gray and top-mark queues
// do the same: grown from nil, they cost a stream of one media graph several
// reallocations, and a long stream one per doubling of its marks per
// segment. The decode path needs no segment buffer at all: wire bytes are
// read straight into the tail of the staged chunk, and a compact segment
// inflates there in place.

// maxPooledBuf caps what returns to the pool: a one-off oversized-object
// buffer should be freed, not pinned in the pool forever. Only a reference
// array bigger than DefaultBufferSize, or a WithBufferSize above it, still
// takes a buffer that large: a ref-free object that big is sent from the
// heap (Writer.sendFromHeap) and never enters one.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultBufferSize)
		return &b
	},
}

// getBuf returns a zero-length buffer with capacity at least n.
func getBuf(n int) []byte {
	b := *bufPool.Get().(*[]byte)
	if cap(b) < n {
		// Too small for this caller; recycle it for a smaller one and
		// allocate at the requested size.
		bufPool.Put(&b)
		return make([]byte, 0, n)
	}
	return b[:0]
}

// putBuf recycles a buffer obtained from getBuf. Safe on nil.
func putBuf(b []byte) {
	if b == nil || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// writerQueues are the two queues a writer grows as it goes, its gray queue
// and its top marks, kept empty in queuePool between writers. Like
// maxPooledBuf for buffers and top marks, maxPooledGray caps the gray queues
// that return: one traversal with a very wide frontier must not pin its
// queue.
type writerQueues struct {
	gray []grayRec
	tops []byte
}

var queuePool = sync.Pool{New: func() any { return new(writerQueues) }}

const maxPooledGray = 64 << 10
