package fault

// The failpoint catalog. Every injection site in the tree uses one of these
// names, so the chaos matrix, the docs, and the call sites cannot drift
// apart. Sites interpret their own firing (drop a connection, stomp a byte,
// pretend an allocation failed); the registry only decides *when*.
const (
	// RegistryDial fails TCPClient dials with an injected error.
	RegistryDial = "registry.dial"
	// RegistryExchangeDrop severs the client connection just before an
	// exchange, exercising the redial/retry path.
	RegistryExchangeDrop = "registry.exchange.drop"
	// RegistryExchangeDelay sleeps (arg duration, default 1ms) before an
	// exchange, exercising the per-exchange deadline.
	RegistryExchangeDelay = "registry.exchange.delay"
	// RegistryExchangeDup duplicates the request frame on the wire, leaving
	// a replayed response buffered on the connection — the failure the
	// exchange nonce exists to catch.
	RegistryExchangeDup = "registry.exchange.dup"

	// CoreWriteFail fails a writer segment flush with an injected error.
	CoreWriteFail = "core.write.fail"
	// CoreChunkTruncate zeroes the tail of a received segment before the
	// checksum check (a torn transfer).
	CoreChunkTruncate = "core.chunk.truncate"
	// CoreChunkBitflip flips one deterministic bit of a received segment
	// before the checksum check.
	CoreChunkBitflip = "core.chunk.bitflip"
	// CoreChunkBadTID overwrites the first object's type ID after the
	// checksum check, exercising the absolutization-time class validation.
	CoreChunkBadTID = "core.chunk.badtid"
	// CoreChunkBadPtr overwrites a reference slot with an out-of-range
	// relative pointer after the checksum check, exercising the
	// absolutization-time bounds validation.
	CoreChunkBadPtr = "core.chunk.badptr"
	// CoreAllocBuffer makes the reader's input-chunk allocation fail once,
	// exercising the buffer-exhaustion decode error.
	CoreAllocBuffer = "core.alloc.buffer"

	// DataflowFetchTorn corrupts the fetched copy of a shuffle block (the
	// stored block stays intact, so a re-fetch can succeed).
	DataflowFetchTorn = "dataflow.fetch.torn"
	// DataflowTaskDie kills an executor task mid-stage with an injected
	// error, exercising the clean stage-abort path.
	DataflowTaskDie = "dataflow.task.die"

	// TransportDial fails a TCP transport dial to a peer block server with
	// an injected error, exercising the pool's retry/backoff path.
	TransportDial = "transport.dial"
	// TransportStreamTorn flips one byte of a received transport data
	// frame before its CRC-32C check — a torn stream, rejected at the
	// framing layer and surfaced as a *core.DecodeError.
	TransportStreamTorn = "transport.stream.torn"
	// TransportPeerSlow stalls the receiver (arg duration, default 1ms)
	// before it acknowledges a transport data frame — a slow peer, which
	// the sender's credit window turns into real backpressure.
	TransportPeerSlow = "transport.peer.slow"

	// GCAllocFail makes an allocation miss its fast path at the chosen
	// safepoint, forcing a collection there; with arg=oom the allocation
	// fails outright with ErrOOM.
	GCAllocFail = "gc.alloc.fail"

	// ArenaMapFail fails an arena region's segment mapping, exercising the
	// decode-time resource error on the off-heap staging path.
	ArenaMapFail = "arena.map.fail"
	// ArenaPromoteFail fails the copy-on-write promotion of an arena
	// object graph into the managed heap, exercising the mutation-path
	// error surface.
	ArenaPromoteFail = "arena.promote.fail"
)

// Catalog lists every registered failpoint name; the chaos matrix iterates
// it, and the docs table is generated from the same order.
func Catalog() []string {
	return []string{
		RegistryDial,
		RegistryExchangeDrop,
		RegistryExchangeDelay,
		RegistryExchangeDup,
		CoreWriteFail,
		CoreChunkTruncate,
		CoreChunkBitflip,
		CoreChunkBadTID,
		CoreChunkBadPtr,
		CoreAllocBuffer,
		DataflowFetchTorn,
		DataflowTaskDie,
		TransportDial,
		TransportStreamTorn,
		TransportPeerSlow,
		GCAllocFail,
		ArenaMapFail,
		ArenaPromoteFail,
	}
}
