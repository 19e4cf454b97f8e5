package dataflow

// sortByKey sorts recs by key, stably: records with equal keys keep their
// emit order, which is what makes a block's bytes — and through them every
// workload digest — a function of the emitted records alone. It is an LSD
// radix sort, one counting pass per key byte, that skips the byte positions
// on which every key agrees: vertex IDs take 2–3 passes, 32-bit hashes 4.
// tmp is the second buffer; it is returned, grown if it had to be, for the
// next call.
func sortByKey(recs, tmp []outRecord) []outRecord {
	n := len(recs)
	if n < 2 {
		return tmp
	}
	if cap(tmp) < n {
		tmp = make([]outRecord, n)
	}
	var count [8][256]int
	for _, r := range recs {
		for b := range count {
			count[b][byte(r.key>>(8*b))]++
		}
	}
	src, dst := recs, tmp[:n]
	for b := range count {
		cnt, shift := &count[b], 8*b
		if cnt[byte(src[0].key>>shift)] == n {
			continue // every key has this byte
		}
		sum := 0
		for i, c := range cnt {
			cnt[i], sum = sum, sum+c
		}
		for _, r := range src {
			d := byte(r.key >> shift)
			dst[cnt[d]] = r
			cnt[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
	return tmp
}
