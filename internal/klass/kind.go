// Package klass models class metadata for the simulated managed runtime:
// class definitions ("class files"), loaded klasses with HotSpot-style field
// layout, and array klasses. A klass.Path plays the role of the cluster-wide
// classpath: every node loads the same definitions, mirroring the paper's
// assumption that "the sender and the receiver use the same version of each
// transfer-related class" (§3.1).
package klass

import "fmt"

// Kind identifies the primitive category of a field or array element,
// mirroring the JVM's primitive types plus reference.
type Kind uint8

// Field kinds. Sizes match the 64-bit HotSpot object model the paper's
// Figure 6 is drawn from: references are 8 bytes (no compressed oops).
const (
	Invalid Kind = iota
	Bool         // 1 byte
	Int8         // 1 byte
	Int16        // 2 bytes
	Char         // 2 bytes (UTF-16 code unit, like a Java char)
	Int32        // 4 bytes
	Float32      // 4 bytes
	Int64        // 8 bytes
	Float64      // 8 bytes
	Ref          // 8 bytes (in-heap address)
)

// Size returns the field size in bytes for the kind, 0 for a kind without
// one.
func (k Kind) Size() uint32 { return uint32(kindSizes[k]) }

// kindSizes is Size's table. It spans every uint8, so a lookup needs no
// bounds check and no branch, and costs the accessors that size an element
// on every access next to nothing of their inlining budget.
var kindSizes = [256]uint8{Bool: 1, Int8: 1, Int16: 2, Char: 2, Int32: 4, Float32: 4, Int64: 8, Float64: 8, Ref: 8}

// String returns the Java-like name of the kind.
func (k Kind) String() string {
	switch k {
	case Bool:
		return "boolean"
	case Int8:
		return "byte"
	case Int16:
		return "short"
	case Char:
		return "char"
	case Int32:
		return "int"
	case Float32:
		return "float"
	case Int64:
		return "long"
	case Float64:
		return "double"
	case Ref:
		return "ref"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}
