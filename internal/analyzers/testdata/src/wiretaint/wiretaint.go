// Package wiretaint is the analysis fixture for the wiretaint analyzer:
// integers decoded off the wire must pass a full-width bounds check before
// they size an allocation, index a slice, or offset a heap address.
package wiretaint

import (
	"encoding/binary"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

const limit = 1 << 16

// A wire length sizing a buffer with no check at all is the canonical bug.
func badMake(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	return make([]byte, n) // want `wire-derived value reaches a make size/capacity without a dominating full-width bounds check`
}

// badWrap seeds the PR 5 regression shape: the only guard compares a
// TRUNCATED conversion of the value, so a length with bit 32 set passes the
// check and oversizes the allocation.
func badWrap(b []byte, rt *vm.Runtime, k *klass.Klass) (heap.Addr, error) {
	n := int64(binary.BigEndian.Uint32(b)) * 8
	if uint32(n) > limit {
		return heap.Null, nil
	}
	return rt.NewArray(k, int(n)) // want `wire-derived value reaches the NewArray size argument without a dominating full-width bounds check`
}

// A varint-decoded count driving an array allocation is just as untrusted.
func badNewArray(rt *vm.Runtime, k *klass.Klass, b []byte) heap.Addr {
	n, _ := binary.Uvarint(b)
	return rt.MustNewArray(k, int(n)) // want `wire-derived value reaches the MustNewArray size argument without a dominating full-width bounds check`
}

// Wire offsets must not feed heap address arithmetic unchecked.
func badAddrAdd(a heap.Addr, b []byte) heap.Addr {
	off := binary.BigEndian.Uint32(b)
	return a.Add(off) // want `wire-derived value reaches the Add size argument without a dominating full-width bounds check`
}

// Indexing a table with a wire-read ordinal can read out of bounds.
func badIndex(table []heap.Addr, b []byte) heap.Addr {
	i := binary.BigEndian.Uint16(b)
	return table[i] // want `wire-derived value reaches a slice/array index without a dominating full-width bounds check`
}

// The taint is interprocedural: a helper returning a wire read taints its
// callers through the parameter→return summary.
func frameLen(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func badThroughHelper(b []byte) []byte {
	return make([]byte, frameLen(b)) // want `wire-derived value reaches a make size/capacity without a dominating full-width bounds check`
}

// goodWidened mirrors the fixed decode path in internal/core/reader.go: the
// count is validated with a WIDENED comparison before it reaches the sink,
// so the wrap is impossible and nothing is reported.
func goodWidened(b []byte) []byte {
	n := int(int64(binary.BigEndian.Uint32(b)))
	if n < 0 || uint64(n)*8 > uint64(len(b)) {
		return nil
	}
	return make([]byte, n)
}

// klass.Extent takes the length word exactly as read and is itself the
// full-width check (it replaced the wrapping size primitive that used to be
// a sink here), so the size it returns is clean.
func goodExtent(b []byte, k *klass.Klass) []byte {
	size, _, ok := k.Extent(binary.LittleEndian.Uint64(b), uint64(len(b)))
	if !ok {
		return nil
	}
	return make([]byte, size)
}

// A same-width comparison of an unwidened uint32 cannot wrap either — the
// compare sees every bit the sink sees.
func goodSameWidth(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > limit {
		return nil
	}
	return make([]byte, n)
}

// Sanitizing inside a helper clears the summary, so callers are clean.
func clampedLen(b []byte) uint32 {
	n := binary.BigEndian.Uint32(b)
	if n > limit {
		return limit
	}
	return n
}

func goodClampedHelper(b []byte) []byte {
	return make([]byte, clampedLen(b))
}

// Sizes that never touched the wire are not findings.
func goodLocalSize(a heap.Addr) heap.Addr {
	n := uint32(12)
	return a.Add(n)
}
