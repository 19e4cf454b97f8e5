package core

import (
	"bytes"
	"testing"
)

// BenchmarkRecords times the per-object path on a stream of small root
// graphs (recordCorpus), where the copy itself is a small share of the work:
// encode into memory — a root per call and the whole corpus as one batch, on
// either wire — and decode of either wire's stream on either receive path.
func BenchmarkRecords(b *testing.B) {
	snd, rcv, sky := testCluster(b)
	const n = 100000
	roots := recordCorpus(b, snd, n)
	wires := []struct {
		name string
		opts []WriterOption
	}{{"", nil}, {"-compact", []WriterOption{WithCompactHeaders()}}}

	var buf bytes.Buffer
	for _, wire := range wires {
		b.Run("encode"+wire.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				encodeRecords(b, sky, roots, &buf, wire.opts...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/root")
		})
		b.Run("encode-batch"+wire.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				sky.ShuffleStart()
				w := sky.NewWriter(&buf, wire.opts...)
				if err := w.WriteObjects(roots); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/root")
		})
		stream := bytes.Clone(buf.Bytes())
		for _, mode := range []struct {
			name string
			opts []ReaderOption
		}{{"decode", nil}, {"decode-arena", []ReaderOption{WithArena()}}} {
			b.Run(mode.name+wire.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := NewReader(rcv, bytes.NewReader(stream), mode.opts...)
					if got, err := r.ReadAll(); err != nil || len(got) != n {
						b.Fatalf("decoded %d of %d roots: %v", len(got), n, err)
					}
					r.Free()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/root")
			})
		}
	}
}
