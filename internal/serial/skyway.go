package serial

import (
	"io"

	"skyway/internal/arena"
	"skyway/internal/core"
	"skyway/internal/heap"
	"skyway/internal/vm"
)

// SkywayCodec adapts the Skyway transfer service to the Codec interface so
// harnesses can swap it in wherever a baseline serializer is used — the
// drop-in integration §3.3 is about.
//
// Its encoders write the compact wire (core.WithCompactHeaders): an engine's
// records are a few words each, and a header on every one of them costs more
// in bytes than Skyway saves in S/D. The library's own writers
// (core.Skyway.NewWriter, skyway.DialWriter) default to the paper's
// full-image wire.
type SkywayCodec struct {
	// Arena switches decoders to the off-heap arena path: received
	// segments stay relativized outside the managed heap and absolutize
	// lazily on first mutation. The wire format is unchanged — Arena is a
	// pure receiver-side policy, chosen by the caller (the "skyway-arena"
	// serializer name sets it).
	Arena bool
}

// NewSkywayCodec builds the adapter on the eager receive path. The codec
// holds no per-runtime state — phase, stream IDs and statistics are the
// runtime's — so the runtimes it will serve need not be listed; the parameter
// remains for callers that do.
func NewSkywayCodec(...*vm.Runtime) *SkywayCodec { return &SkywayCodec{} }

// ServiceFor returns a Skyway service for rt.
func (c *SkywayCodec) ServiceFor(rt *vm.Runtime) *core.Skyway { return core.New(rt) }

// ConcurrentEncoders implements ConcurrentCodec: Skyway encoders on one
// heap may run on concurrent goroutines — per-object visited state lives in
// the CAS-claimed baddr header words and per-writer hash-table fallbacks
// (§4.2), not in shared mutable tables.
func (c *SkywayCodec) ConcurrentEncoders() bool { return true }

// Name implements Codec.
func (c *SkywayCodec) Name() string {
	if c.Arena {
		return "skyway-arena"
	}
	return "skyway"
}

// NewEncoder implements Codec.
func (c *SkywayCodec) NewEncoder(rt *vm.Runtime, w io.Writer) Encoder {
	return &skywayEncoder{w: core.New(rt).NewWriter(w, core.WithCompactHeaders())}
}

// NewDecoder implements Codec.
func (c *SkywayCodec) NewDecoder(rt *vm.Runtime, r io.Reader) Decoder {
	var opts []core.ReaderOption
	if c.Arena {
		opts = append(opts, core.WithArena())
	}
	return &skywayDecoder{r: core.NewReader(rt, r, opts...)}
}

type skywayEncoder struct{ w *core.Writer }

func (e *skywayEncoder) Write(root heap.Addr) error { return e.w.WriteObject(root) }

func (e *skywayEncoder) WriteBatch(roots []heap.Addr) error { return e.w.WriteObjects(roots) }

func (e *skywayEncoder) Flush() error {
	// Closing emits the end frame so the matching Decoder sees EOF; a
	// Skyway stream is one shuffle transfer, flushed when complete.
	return e.w.Close()
}

type skywayDecoder struct{ r *core.Reader }

func (d *skywayDecoder) Read() (heap.Addr, error) { return d.r.ReadObject() }

// Free releases the decoder's input buffers (explicit-free API, §3.2).
func (d *skywayDecoder) Free() { d.r.Free() }

// ArenaRegion exposes the decoder's arena region (nil on the eager path)
// so the dataflow layer can bind shuffle-stage regions to their stage
// epoch for wholesale reclamation.
func (d *skywayDecoder) ArenaRegion() *arena.Region { return d.r.ArenaRegion() }
