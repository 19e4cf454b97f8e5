package core

import (
	"skyway/internal/arena"
	"skyway/internal/fault"
)

// Arena decode mode (the SKYWAY_ARENA path): received segments are staged
// into an mmap-backed region outside the managed heap and are NEVER
// absolutized. The linear scan still runs — every structural property a
// malformed stream could abuse (type IDs, declared lengths, reference
// shape) is validated with exactly the checks, error kinds and messages of
// the eager path — but it commits nothing: klass words keep their global
// type IDs, reference slots keep their biased relative addresses. Roots
// come back as tagged arena addresses (heap.ComposeArenaAddr) that the vm
// accessor layer resolves on demand, promoting an object into the managed
// heap only when a workload mutates it. The collector never pins, scans or
// compacts a byte of it; Free releases the whole region at once.

// ReaderOption configures NewReader.
type ReaderOption func(*Reader)

// WithArena stages this reader's segments into an off-heap arena region
// instead of pinned buffer space, and defers absolutization to first
// mutation.
func WithArena() ReaderOption {
	return func(rd *Reader) { rd.arena = true }
}

// ArenaRegion returns the reader's arena region (nil before the first
// segment, or on a non-arena reader). The dataflow layer uses it to bind
// shuffle-stage regions to their stage epoch for wholesale reclamation.
func (rd *Reader) ArenaRegion() *arena.Region { return rd.region }

// arenaRegion returns the reader's region, creating it on first use, and
// refuses to touch a region that was retired out from under the stream
// (the arena.region.premature-free failpoint, or a stage-epoch backstop
// firing early): that must surface as a structured resource error, never
// as a read of unmapped memory.
func (rd *Reader) arenaRegion() (*arena.Region, error) {
	if rd.region == nil {
		rd.region = rd.rt.Arena.NewRegion()
	}
	if rd.region.Retired() {
		return nil, rd.decodeErrf(DecodeResource, 0,
			"arena region %d retired while its stream was still open", rd.region.ID())
	}
	return rd.region, nil
}

// checkRegion is the liveness gate an arena reader passes at every top mark:
// the walker commits nothing for it — klass words keep their global type
// IDs, reference slots their relative addresses, resolution is the accessor
// layer's job, object by object, on demand — so the region the roots will be
// read through has to still be there.
func (rd *Reader) checkRegion() error {
	// Failpoint: the region is reclaimed out from under the live stream —
	// a lifecycle bug (or this injection) that the retired-region guard
	// must turn into a structured error.
	if fault.Eval(fault.ArenaRegionPrematureFree) && rd.region != nil {
		rd.region.Release()
	}
	if len(rd.chunks) == 0 {
		return nil
	}
	_, err := rd.arenaRegion()
	return err
}
