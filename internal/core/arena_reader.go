package core

import "skyway/internal/arena"

// Arena decode mode (WithArena, which the skyway-arena codec sets): received
// segments are staged into an mmap-backed region outside the managed heap and
// are NEVER absolutized. The linear scan still runs — every structural property a
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
// segment, or on a non-arena reader). Free releases it.
func (rd *Reader) ArenaRegion() *arena.Region { return rd.region }
