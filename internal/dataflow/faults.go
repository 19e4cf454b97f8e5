package dataflow

import (
	"fmt"

	"skyway/internal/obs"
)

// Degradation-ladder counters, exported on /metrics.
var (
	ctrRefetches     = obs.NewCounter("skyway_shuffle_refetches_total", "Shuffle block fetches retried after a failed decode.")
	ctrPeersExcluded = obs.NewCounter("skyway_shuffle_peers_excluded_total", "Map-side peers excluded after persistent block failures.")
	ctrStageAborts   = obs.NewCounter("skyway_shuffle_stage_aborts_total", "Stages aborted by the shuffle degradation ladder.")
)

// maxFetchAttempts bounds the first rung of the receive-side degradation
// ladder (fetchBlock): one fetch plus two re-fetches per block. A decode
// failure releases everything the attempt pinned, so the heap is
// exactly as it was; the re-fetch starts from the intact stored block. Only
// when every attempt fails does the ladder climb: the peer is excluded and
// the stage aborts with a StageAbortError — degraded, never corrupted.
const maxFetchAttempts = 3

// StageAbortError is the structured terminal error of the shuffle
// degradation ladder: a (mapper, partition) block failed to decode on every
// bounded re-fetch, the mapper was excluded, and the stage cannot produce
// correct results without the block. The wrapped cause is the last decode
// error (usually a *core.DecodeError; errors.As reaches it).
type StageAbortError struct {
	Stage    string // "reduce" or "broadcast"
	Src      int    // the excluded map executor
	Dst      int    // the partition whose block failed
	Attempts int    // fetch attempts consumed
	Err      error  // last decode failure
}

func (e *StageAbortError) Error() string {
	return fmt.Sprintf("dataflow: %s stage aborted: block (mapper %d, partition %d) failed %d fetch attempts, peer %d excluded: %v",
		e.Stage, e.Src, e.Dst, e.Attempts, e.Src, e.Err)
}

func (e *StageAbortError) Unwrap() error { return e.Err }

// excludePeer records a map executor whose blocks persistently fail to
// decode, counting each peer once on /metrics, so an operator can tell a bad
// peer from a bad stream.
func (c *Cluster) excludePeer(src int) {
	c.excludedMu.Lock()
	first := !c.excluded[src]
	if first {
		if c.excluded == nil {
			c.excluded = make(map[int]bool)
		}
		c.excluded[src] = true
	}
	c.excludedMu.Unlock()
	if first {
		ctrPeersExcluded.Inc()
	}
}
