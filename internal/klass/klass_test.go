package klass

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestKindSizes(t *testing.T) {
	want := map[Kind]uint32{
		Bool: 1, Int8: 1, Int16: 2, Char: 2,
		Int32: 4, Float32: 4, Int64: 8, Float64: 8, Ref: 8,
	}
	for k, sz := range want {
		if got := k.Size(); got != sz {
			t.Errorf("%v.Size() = %d, want %d", k, got, sz)
		}
	}
	if Invalid.Size() != 0 {
		t.Errorf("Invalid.Size() = %d, want 0", Invalid.Size())
	}
}

func TestClassDefValidate(t *testing.T) {
	cases := []struct {
		name string
		def  ClassDef
		ok   bool
	}{
		{"empty name", ClassDef{}, false},
		{"array name", ClassDef{Name: "int[]"}, false},
		{"plain", ClassDef{Name: "A", Fields: []FieldDef{{Name: "x", Kind: Int32}}}, true},
		{"dup field", ClassDef{Name: "A", Fields: []FieldDef{{Name: "x", Kind: Int32}, {Name: "x", Kind: Int64}}}, false},
		{"ref without class", ClassDef{Name: "A", Fields: []FieldDef{{Name: "r", Kind: Ref}}}, false},
		{"prim with class", ClassDef{Name: "A", Fields: []FieldDef{{Name: "x", Kind: Int32, Class: "B"}}}, false},
		{"ref with class", ClassDef{Name: "A", Fields: []FieldDef{{Name: "r", Kind: Ref, Class: "B"}}}, true},
	}
	for _, c := range cases {
		err := c.def.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPathDefineAndLookup(t *testing.T) {
	p := NewPath()
	if err := p.Define(&ClassDef{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Define(&ClassDef{Name: "A"}); err == nil {
		t.Fatal("duplicate Define succeeded")
	}
	if p.Lookup("A") == nil {
		t.Fatal("Lookup(A) = nil")
	}
	if p.Lookup("B") != nil {
		t.Fatal("Lookup(B) != nil")
	}
}

func TestArrayNames(t *testing.T) {
	cases := []struct {
		name  string
		elem  Kind
		class string
	}{
		{"int[]", Int32, ""},
		{"long[]", Int64, ""},
		{"char[]", Char, ""},
		{"com.example.Date[]", Ref, "com.example.Date"},
	}
	for _, c := range cases {
		elem, class, ok := ParseArrayName(c.name)
		if !ok || elem != c.elem || class != c.class {
			t.Errorf("ParseArrayName(%q) = (%v,%q,%v)", c.name, elem, class, ok)
		}
	}
	if _, _, ok := ParseArrayName("NotAnArray"); ok {
		t.Error("ParseArrayName accepted a non-array name")
	}
}

func mustResolve(t *testing.T, def *ClassDef, super *Klass, l Layout) *Klass {
	t.Helper()
	k, err := ResolveLayout(def, super, l)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestLayoutPacking(t *testing.T) {
	l := Layout{Baddr: true}
	def := &ClassDef{Name: "P", Fields: []FieldDef{
		{Name: "b", Kind: Int8},
		{Name: "l", Kind: Int64},
		{Name: "s", Kind: Int16},
		{Name: "i", Kind: Int32},
		{Name: "r", Kind: Ref, Class: "P"},
	}}
	k := mustResolve(t, def, nil, l)
	// Largest-first: l(8) r(8) i(4) s(2) b(1) starting at header end 24.
	offs := map[string]uint32{"l": 24, "r": 32, "i": 40, "s": 44, "b": 46}
	for name, want := range offs {
		if got := k.FieldByName(name).Offset; got != want {
			t.Errorf("field %s offset = %d, want %d", name, got, want)
		}
	}
	if k.Size != 48 { // 47 used, padded to 48
		t.Errorf("Size = %d, want 48", k.Size)
	}
	if len(k.RefOffsets) != 1 || k.RefOffsets[0] != 32 {
		t.Errorf("RefOffsets = %v", k.RefOffsets)
	}
}

func TestLayoutInheritance(t *testing.T) {
	l := Layout{Baddr: true}
	sup := mustResolve(t, &ClassDef{Name: "S", Fields: []FieldDef{{Name: "x", Kind: Int32}}}, nil, l)
	sub := mustResolve(t, &ClassDef{Name: "T", Super: "S", Fields: []FieldDef{{Name: "y", Kind: Int64}}}, sup, l)
	if sub.FieldByName("x").Offset != sup.FieldByName("x").Offset {
		t.Error("inherited field moved")
	}
	if sub.FieldByName("y").Offset < sup.Size {
		t.Error("subclass field overlaps superclass suffix")
	}
	if sub.Super != sup {
		t.Error("Super link wrong")
	}
}

func TestLayoutWithoutBaddr(t *testing.T) {
	with := Layout{Baddr: true}
	without := Layout{Baddr: false}
	def := &ClassDef{Name: "A", Fields: []FieldDef{{Name: "x", Kind: Int64}}}
	kw := mustResolve(t, def, nil, with)
	ko := mustResolve(t, def, nil, without)
	if kw.Size-ko.Size != 8 {
		t.Errorf("baddr overhead = %d, want 8", kw.Size-ko.Size)
	}
	if without.OffBaddr() != -1 {
		t.Errorf("OffBaddr without baddr = %d, want -1", without.OffBaddr())
	}
	if with.ArrayHeaderSize() != 32 || without.ArrayHeaderSize() != 24 {
		t.Errorf("array header sizes = %d/%d", with.ArrayHeaderSize(), without.ArrayHeaderSize())
	}
}

func TestArrayKlassSizes(t *testing.T) {
	l := Layout{Baddr: true}
	ka, err := ResolveArray("int[]", l)
	if err != nil {
		t.Fatal(err)
	}
	if size, nrefs, ok := ka.Extent(3, 48); size != Pad(32+12) || nrefs != 0 || !ok {
		t.Errorf("int[3] extent = %d, %d, %v", size, nrefs, ok)
	}
	kr, err := ResolveArray("X[]", l)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Elem != Ref || kr.ElemClass != "X" {
		t.Errorf("ref array elem = %v %q", kr.Elem, kr.ElemClass)
	}
	if size, nrefs, ok := kr.Extent(2, 48); size != 32+16 || nrefs != 2 || !ok {
		t.Errorf("X[2] extent = %d, %d, %v", size, nrefs, ok)
	}
	if kr.RefSlot(0) != 32 || kr.RefSlot(1) != 40 {
		t.Errorf("X[2] slots at %d, %d", kr.RefSlot(0), kr.RefSlot(1))
	}
	// One byte short of room, and the PR 5 wrap: 2^29 eight-byte elements
	// are 2^32 bytes, which a 32-bit product turns into a bare header.
	if _, _, ok := kr.Extent(2, 47); ok {
		t.Error("X[2] fits in 47 bytes")
	}
	if size, nrefs, ok := kr.Extent(1<<29, math.MaxUint64); ok {
		t.Errorf("X[2^29] extent = %d, %d, ok", size, nrefs)
	}
}

// Property: Extent is the padded instance size computed without wrapping. It
// agrees with a math/big reference on size and fit for any klass, length
// word and room, never reports a size beyond the room, sizes in whole words,
// and counts reference slots only where there are references.
func TestExtentMatchesBigReferenceQuick(t *testing.T) {
	l := Layout{Baddr: true}
	var klasses []*Klass
	for _, name := range []string{"boolean[]", "byte[]", "short[]", "char[]", "int[]", "float[]", "long[]", "double[]", "X[]"} {
		k, err := ResolveArray(name, l)
		if err != nil {
			t.Fatal(err)
		}
		klasses = append(klasses, k)
	}
	klasses = append(klasses, mustResolve(t, &ClassDef{Name: "P", Fields: []FieldDef{
		{Name: "a", Kind: Ref, Class: "P"}, {Name: "b", Kind: Int8}, {Name: "c", Kind: Ref, Class: "P"},
	}}, nil, l))
	// Raw 64-bit draws almost never land near a boundary, so each value is
	// shifted down by a drawn amount: lengths and rooms of every magnitude,
	// the 2^29..2^32 wrap band included.
	f := func(sel uint8, nRaw, roomRaw uint64, nShift, roomShift uint8) bool {
		k := klasses[int(sel)%len(klasses)]
		n, room := nRaw>>(nShift%64), roomRaw>>(roomShift%64)
		size, nrefs, ok := k.Extent(n, room)

		want := new(big.Int).SetUint64(uint64(k.Size))
		wantRefs := len(k.RefOffsets)
		if k.IsArray {
			payload := new(big.Int).Mul(new(big.Int).SetUint64(n), big.NewInt(int64(k.Elem.Size())))
			want.Add(want, payload).Add(want, big.NewInt(WordSize-1))
			want.Sub(want, new(big.Int).Mod(want, big.NewInt(WordSize)))
			wantRefs = 0
			if k.Elem == Ref {
				wantRefs = int(n)
			}
		}
		fits := want.Cmp(new(big.Int).SetUint64(room)) <= 0 && want.Cmp(big.NewInt(math.MaxUint32)) <= 0
		if ok != fits {
			return false
		}
		if !ok {
			return size == 0 && nrefs == 0
		}
		return uint64(size) == want.Uint64() && uint64(size) <= room && size%WordSize == 0 && nrefs == wantRefs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every resolved layout places fields without overlap, aligned to
// their size, inside the instance, and Size is word-padded.
func TestLayoutInvariantsQuick(t *testing.T) {
	kinds := []Kind{Bool, Int8, Int16, Char, Int32, Float32, Int64, Float64, Ref}
	f := func(sel []uint8) bool {
		if len(sel) > 24 {
			sel = sel[:24]
		}
		def := &ClassDef{Name: "Q"}
		for i, s := range sel {
			kind := kinds[int(s)%len(kinds)]
			fd := FieldDef{Name: fieldName(i), Kind: kind}
			if kind == Ref {
				fd.Class = "Q"
			}
			def.Fields = append(def.Fields, fd)
		}
		k, err := ResolveLayout(def, nil, Layout{Baddr: true})
		if err != nil {
			return false
		}
		if k.Size%WordSize != 0 {
			return false
		}
		type span struct{ lo, hi uint32 }
		var spans []span
		for _, fl := range k.Fields {
			sz := fl.Kind.Size()
			if fl.Offset%sz != 0 || fl.Offset < 24 || fl.Offset+sz > k.Size {
				return false
			}
			spans = append(spans, span{fl.Offset, fl.Offset + sz})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func fieldName(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }
