// Package transport defines the seam between the dataflow exchange and the
// layer that actually moves serialized bytes between executors: put, fetch
// and drop over one block store per round. The dataflow engine produces and
// consumes opaque blocks (already framed and checksummed by the active
// codec's wire format); a Transport decides where those blocks live and what
// moving them costs. A driver → worker broadcast is W self-addressed blocks
// of a round, not a second exchange.
//
// Two implementations ship: netsim.LocalTransport keeps blocks in process
// and measures nothing — the fast CI path, bit-identical to the historical
// simulator — and transport/tcp moves every block through per-executor
// server processes over length-prefixed, CRC-framed TCP streams.
//
// The two worlds account differently, and Measured says which one a
// transport is in: the simulator's I/O is charged modelled time derived
// from byte counts, a real network transport's exactly what its sockets
// measured. The dataflow engine prices both in one place (Cluster.ioCharge)
// and otherwise stays byte-count centric.
package transport

import "time"

// Transport moves serialized blocks between the executors of one cluster.
// Implementations must be safe for concurrent use by parallel tasks.
type Transport interface {
	// NewShuffle opens the block exchange for one shuffle round. seq
	// distinguishes rounds so a transport with persistent storage (remote
	// block servers) never confuses two rounds' blocks.
	NewShuffle(seq int) (Shuffle, error)

	// Measured reports which world the transport is in: true when the
	// durations Put and Fetch return are real wall-clock I/O and are the
	// task's charge as they stand — every attempt counts, so a block
	// re-fetched by the degradation ladder is charged again; false when
	// they are zero and the charge is modelled from the byte counts.
	Measured() bool

	// Close releases the transport's connections and round state.
	Close() error
}

// Shuffle is one round's block exchange. Blocks are keyed by the (mapper,
// partition) pair — a broadcast round's by (executor, executor); a block
// stays available until Drop so a fetch whose copy was damaged in flight can
// be retried from the intact stored bytes.
type Shuffle interface {
	// Put publishes mapper src's serialized block for partition dst and
	// returns the measured I/O time (zero under a modelled transport).
	// Empty blocks need not be published.
	Put(src, dst int, block []byte) (time.Duration, error)

	// Fetch returns a copy-on-damage view of block (src, dst) and the
	// measured fetch time. A nil block means the mapper published nothing
	// for that partition. The caller must treat the returned bytes as
	// read-only (tearing them for fault injection requires a copy).
	Fetch(src, dst int) ([]byte, time.Duration, error)

	// Drop releases a block the reducer has fully decoded.
	Drop(src, dst int)

	// Close releases the round's residual state. Blocks never dropped (an
	// aborted stage) may survive Close; the next round uses a fresh seq.
	Close() error
}
