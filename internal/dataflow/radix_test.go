package dataflow

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// checkSortByKey holds sortByKey to its contract: the same permutation as
// the stable comparison sort it replaced (slots record the input order, so
// equality of the two slices is equality of order among equal keys too).
func checkSortByKey(t *testing.T, keys []uint64, tmp []outRecord) []outRecord {
	t.Helper()
	recs := make([]outRecord, len(keys))
	for i, k := range keys {
		recs[i] = outRecord{key: k, slot: i}
	}
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b outRecord) int { return cmp.Compare(a.key, b.key) })
	tmp = sortByKey(recs, tmp)
	if !slices.Equal(recs, want) {
		t.Fatalf("sortByKey differs from slices.SortStableFunc on %d keys (first: %#x)", len(keys), keys[:min(len(keys), 4)])
	}
	return tmp
}

// sortCases are the shapes the skip-a-byte rule and the buffer swap have to
// get right; they also seed the fuzz target.
func sortCases() map[string][]uint64 {
	rng := rand.New(rand.NewSource(22))
	cases := map[string][]uint64{
		"empty": {},
		"one":   {42},
		"two":   {2, 1},
	}
	gen := func(name string, n int, f func() uint64) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f()
		}
		cases[name] = keys
	}
	gen("all-equal", 100, func() uint64 { return 0xDEADBEEF })
	gen("random-small-range", 5000, func() uint64 { return uint64(rng.Intn(37)) }) // many ties
	gen("vertex-ids", 5000, func() uint64 { return uint64(rng.Intn(70000)) })      // 3 passes
	gen("hash32", 5000, func() uint64 { return uint64(rng.Uint32()) })             // 4 passes
	gen("full-64-bit", 5000, rng.Uint64)                                           // 8 passes
	gen("top-byte-only", 1000, func() uint64 { return uint64(rng.Intn(256)) << 56 })
	for b := 0; b < 8; b++ { // one varying byte under a constant rest: 1 pass, odd
		gen("single-byte-"+string(rune('0'+b)), 1000, func() uint64 {
			return 0x1122334455667788&^(0xFF<<(8*b)) | uint64(rng.Intn(256))<<(8*b)
		})
	}
	return cases
}

func TestSortByKeyMatchesStableSort(t *testing.T) {
	var tmp []outRecord // carried across cases, as the executor carries it
	for name, keys := range sortCases() {
		t.Run(name, func(t *testing.T) { tmp = checkSortByKey(t, keys, tmp) })
	}
	// A second buffer that is too small, exactly right, and oversized.
	keys := sortCases()["vertex-ids"]
	for _, c := range []int{0, 1, len(keys), 2 * len(keys)} {
		got := checkSortByKey(t, keys, make([]outRecord, c))
		if cap(got) < len(keys) {
			t.Errorf("returned buffer has capacity %d after sorting %d records", cap(got), len(keys))
		}
	}
}

// FuzzSortByKey reads the input as little-endian keys; a trailing partial
// word narrows every key to that many low bytes so the corpus reaches the
// skipped-byte paths cheaply.
func FuzzSortByKey(f *testing.F) {
	for _, keys := range sortCases() {
		keys = keys[:min(len(keys), 64)]
		b := make([]byte, 0, 8*len(keys))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
		f.Add(b)
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		mask := ^uint64(0)
		if w := len(b) % 8; w != 0 {
			mask = 1<<(8*w) - 1
		}
		keys := make([]uint64, len(b)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(b[8*i:]) & mask
		}
		checkSortByKey(t, keys, nil)
	})
}
