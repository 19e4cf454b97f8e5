package registry

import (
	"bytes"
	"testing"
)

// FuzzRegistryPayload feeds arbitrary bytes to the payload decoder under
// every op's request and response shape. It must never panic, never size a
// table past what the bytes could hold, and — the encoding being canonical —
// re-encode whatever it accepted to the same bytes.
func FuzzRegistryPayload(f *testing.F) {
	m := msg{nonce: 7, id: -1, str: "pkg.Class", table: []entry{{0, "a.A"}, {1, ""}}}
	for _, sh := range shapes {
		f.Add(encode(sh.req, m))
		f.Add(encode(sh.resp, m))
	}
	// Malformed seeds: testdata/fuzz/FuzzRegistryPayload.

	f.Fuzz(func(t *testing.T, data []byte) {
		for op, sh := range shapes {
			for _, s := range []shape{sh.req, sh.resp} {
				got, err := decode(s, data)
				if cap(got.table) > len(data)/8 {
					t.Fatalf("op %q: table sized for %d entries from %d bytes", op, cap(got.table), len(data))
				}
				if err == nil && !bytes.Equal(encode(s, got), data) {
					t.Fatalf("op %q shape %b: accepted payload does not re-encode to itself", op, s)
				}
			}
		}
	})
}
