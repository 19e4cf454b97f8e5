package dataflow

import (
	"fmt"

	"skyway/internal/obs"
)

// Degradation-ladder counters, exported on /metrics.
var (
	ctrRefetches   = obs.NewCounter("skyway_shuffle_refetches_total", "Shuffle block fetches retried after a failed decode.")
	ctrStageAborts = obs.NewCounter("skyway_shuffle_stage_aborts_total", "Stages aborted by the shuffle degradation ladder.")
)

// maxFetchAttempts bounds the first rung of the receive-side degradation
// ladder (fetchBlock): one fetch plus two re-fetches per block. A decode
// failure releases everything the attempt pinned, so the heap is
// exactly as it was; the re-fetch starts from the intact stored block. Only
// when every attempt fails does the ladder climb: the stage aborts with a
// StageAbortError naming the peer — degraded, never corrupted.
const maxFetchAttempts = 3

// StageAbortError is the structured terminal error of the shuffle
// degradation ladder: a (mapper, partition) block failed to decode on every
// bounded re-fetch, and the stage cannot produce correct results without
// it. The wrapped cause is the last decode error (usually a
// *core.DecodeError; errors.As reaches it).
type StageAbortError struct {
	Src      int   // the map executor that published the block
	Dst      int   // the partition whose block failed
	Attempts int   // fetch attempts consumed
	Err      error // last decode failure
}

func (e *StageAbortError) Error() string {
	return fmt.Sprintf("dataflow: reduce stage aborted: block (mapper %d, partition %d) failed %d fetch attempts: %v",
		e.Src, e.Dst, e.Attempts, e.Err)
}

func (e *StageAbortError) Unwrap() error { return e.Err }
