package heap

import "testing"

// FuzzBaddrRoundTrip pins the baddr bit layout (§4.2): phase, stream, and
// relative address must survive compose/decompose for every input, and a
// recomposed word must be bit-identical — the CAS claim protocol depends on
// exact equality of these words.
func FuzzBaddrRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint64(0))
	f.Add(uint8(1), uint16(1), uint64(RelBias))
	f.Add(uint8(255), uint16(65535), BaddrRelMask)
	f.Add(uint8(3), uint16(9), uint64(1)<<40) // rel overflowing its field
	f.Add(uint8(7), uint16(512), ^uint64(0))  // all bits set
	f.Fuzz(func(t *testing.T, sid uint8, stream uint16, rel uint64) {
		v := ComposeBaddr(sid, stream, rel)
		if got := BaddrPhase(v); got != sid {
			t.Fatalf("phase %d decoded as %d from %#x", sid, got, v)
		}
		if got := BaddrStream(v); got != stream {
			t.Fatalf("stream %d decoded as %d from %#x", stream, got, v)
		}
		if got := BaddrRel(v); got != rel&BaddrRelMask {
			t.Fatalf("rel %#x decoded as %#x from %#x", rel&BaddrRelMask, got, v)
		}
		if v2 := ComposeBaddr(BaddrPhase(v), BaddrStream(v), BaddrRel(v)); v2 != v {
			t.Fatalf("recompose of %#x gives %#x", v, v2)
		}
	})
}
