package core

import (
	"bytes"
	"testing"
)

// BenchmarkRecords times the per-object path on a stream of small root
// graphs (recordCorpus), where the copy itself is a small share of the work:
// encode into memory, and decode of that stream on either receive path.
func BenchmarkRecords(b *testing.B) {
	snd, rcv, sky := testCluster(b)
	const n = 100000
	roots := recordCorpus(b, snd, n)
	var buf bytes.Buffer
	encodeRecords(b, sky, roots, &buf)
	wire := append([]byte(nil), buf.Bytes()...)

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			encodeRecords(b, sky, roots, &buf)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/root")
	})
	for _, mode := range []struct {
		name string
		opts []ReaderOption
	}{{"decode", nil}, {"decode-arena", []ReaderOption{WithArena()}}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(rcv, bytes.NewReader(wire), mode.opts...)
				if got, err := r.ReadAll(); err != nil || len(got) != n {
					b.Fatalf("decoded %d of %d roots: %v", len(got), n, err)
				}
				r.Free()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/root")
		})
	}
}
