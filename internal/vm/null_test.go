package vm

import (
	"bytes"
	"errors"
	"testing"

	"skyway/internal/heap"
)

// TestNullDereferencePanics: every typed accessor family panics with
// heap.ErrNullDereference on heap.Null — Java's NullPointerException — and
// leaves eden as it was. Address 0 is a reserved word and the first object in
// eden follows it, so an unchecked read at Null+off returned that object's
// bytes and a write changed them.
func TestNullDereferencePanics(t *testing.T) {
	rt := testRuntime(t)
	nk := rt.MustLoad("Node")
	valF, nextF := nk.FieldByName("val"), nk.FieldByName("next")
	first := rt.MustNew(nk)
	rt.SetLong(first, valF, 42)
	eden := func() []byte { return bytes.Clone(rt.Heap.ByteView(rt.Heap.Eden.Start, uint32(rt.Heap.Eden.Used()))) }
	before := eden()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"GetRef", func() { rt.GetRef(heap.Null, nextF) }},
		{"GetLong", func() { rt.GetLong(heap.Null, valF) }},
		{"GetInt", func() { rt.GetInt(heap.Null, valF) }},
		{"GetBool", func() { rt.GetBool(heap.Null, valF) }},
		{"GetDouble", func() { rt.GetDouble(heap.Null, valF) }},
		{"GetRaw", func() { rt.GetRaw(heap.Null, valF) }},
		{"SetRef", func() { rt.SetRef(heap.Null, nextF, first) }},
		{"SetLong", func() { rt.SetLong(heap.Null, valF, 7) }},
		{"SetInt", func() { rt.SetInt(heap.Null, valF, 7) }},
		{"SetBool", func() { rt.SetBool(heap.Null, valF, true) }},
		{"SetDouble", func() { rt.SetDouble(heap.Null, valF, 7) }},
		{"SetRaw", func() { rt.SetRaw(heap.Null, valF, 7) }},
		{"ArrayGetRef", func() { rt.ArrayGetRef(heap.Null, 0) }},
		{"ArrayGetLong", func() { rt.ArrayGetLong(heap.Null, 0) }},
		{"ArrayGetDouble", func() { rt.ArrayGetDouble(heap.Null, 0) }},
		{"ArrayGetChar", func() { rt.ArrayGetChar(heap.Null, 0) }},
		{"ArraySetRef", func() { rt.ArraySetRef(heap.Null, 0, first) }},
		{"ArraySetLong", func() { rt.ArraySetLong(heap.Null, 0, 7) }},
		{"ArraySetDouble", func() { rt.ArraySetDouble(heap.Null, 0, 7) }},
		{"ArraySetChar", func() { rt.ArraySetChar(heap.Null, 0, 7) }},
		{"ArrayLen", func() { rt.ArrayLen(heap.Null) }},
		{"ArrayLongs", func() { rt.ArrayLongs(heap.Null, nil) }},
		{"ArrayPutLongs", func() { rt.ArrayPutLongs(heap.Null, nil) }},
		{"KlassOf", func() { rt.KlassOf(heap.Null) }},
	} {
		func() {
			defer func() {
				r := recover()
				if err, _ := r.(error); !errors.Is(err, heap.ErrNullDereference) {
					t.Errorf("%s through Null: panic %v, want heap.ErrNullDereference", tc.name, r)
				}
			}()
			tc.fn()
		}()
	}
	if !bytes.Equal(eden(), before) {
		t.Error("a write through Null changed eden")
	}
}
