package vm

import (
	"unicode/utf16"

	"skyway/internal/heap"
	"skyway/internal/klass"
)

// StringClass names the built-in string class: a Java-like String holding a
// char[] plus a cached content hash. It is defined automatically on every
// classpath so string-bearing schemas work out of the box.
const StringClass = "java.lang.String"

// CharArrayClass names the char[] backing array class.
const CharArrayClass = "char[]"

// EnsureBuiltins defines the built-in classes on cp if absent. It is called
// implicitly by schema constructors in datagen and by NewRuntime.
func EnsureBuiltins(cp *klass.Path) {
	if cp.Lookup(StringClass) == nil {
		cp.MustDefine(&klass.ClassDef{
			Name: StringClass,
			Fields: []klass.FieldDef{
				{Name: "value", Kind: klass.Ref, Class: CharArrayClass},
				{Name: "hash", Kind: klass.Int32},
			},
		})
	}
}

// NewString allocates a String object (and its char[] value array) holding
// the UTF-16 encoding of s.
func (rt *Runtime) NewString(s string) (heap.Addr, error) {
	units := utf16.Encode([]rune(s))
	arrK, err := rt.LoadClass(CharArrayClass)
	if err != nil {
		return heap.Null, err
	}
	strK, err := rt.LoadClass(StringClass)
	if err != nil {
		return heap.Null, err
	}
	arr, err := rt.NewArray(arrK, len(units))
	if err != nil {
		return heap.Null, err
	}
	// Protect arr across the second allocation, which may GC.
	h := rt.Pin(arr)
	defer h.Release()
	_, b := rt.elems(arr, charKind)
	for i, u := range units {
		heap.StoreBytes(b, uint32(2*i), klass.Char, uint64(u))
	}
	obj, err := rt.New(strK)
	if err != nil {
		return heap.Null, err
	}
	rt.SetRef(obj, strK.FieldByName("value"), h.Addr())
	rt.SetInt(obj, strK.FieldByName("hash"), int64(int32(StringHash(s))))
	return obj, nil
}

// MustNewString is NewString panicking on OOM.
func (rt *Runtime) MustNewString(s string) heap.Addr {
	a, err := rt.NewString(s)
	if err != nil {
		panic(err)
	}
	return a
}

// GoString decodes the String object at a back into a Go string.
func (rt *Runtime) GoString(a heap.Addr) string {
	k := rt.KlassOf(a)
	arr := rt.GetRef(a, k.FieldByName("value"))
	if arr == heap.Null {
		return ""
	}
	_, b := rt.elems(arr, charKind)
	units := make([]uint16, len(b)/2)
	for i := range units {
		units[i] = uint16(heap.LoadBytes(b, uint32(2*i), klass.Char))
	}
	return string(utf16.Decode(units))
}

// StringHash computes the Java String.hashCode of s (over UTF-16 units).
// Baseline serializers recompute it on deserialization (the paper's
// "rehashing" cost); Skyway ships the stored field unchanged.
func StringHash(s string) int32 {
	var h int32
	for _, u := range utf16.Encode([]rune(s)) {
		h = 31*h + int32(u)
	}
	return h
}
