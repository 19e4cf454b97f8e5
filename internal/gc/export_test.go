package gc

import "skyway/internal/heap"

// ScanTenured runs the scavenge's root scan without forwarding anything: fn
// sees every tenured object on a dirty card, in scan order, and the cards
// and pinned objects scanned are counted in Stats as a scavenge counts them.
func (c *Collector) ScanTenured(fn func(a heap.Addr)) { c.scanTenured(fn) }

// CleanCards runs the scavenge's card cleaning on the heap as it stands.
func (c *Collector) CleanCards() { c.cleanCards() }
