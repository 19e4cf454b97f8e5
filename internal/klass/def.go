package klass

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FieldDef declares one instance field in a ClassDef.
type FieldDef struct {
	Name string
	Kind Kind
	// Class names the static type of a Ref field (informational; used by
	// schema-compiled serializers and by array element typing).
	Class string
	// Transient marks the field as excluded from conventional
	// serialization, like Java's transient keyword. Serializer baselines
	// skip it; Skyway's whole-object copy ships it anyway — receivers
	// that need Java-like reset semantics use the §3.3 field-update API.
	Transient bool
}

// ClassDef is the portable description of a class — the equivalent of a
// class file on the cluster classpath. Definitions carry no layout; layout
// is computed per runtime when the class is loaded, because header geometry
// may differ between runtimes (§3.1 heterogeneous clusters).
type ClassDef struct {
	Name   string
	Super  string // superclass name; "" means java.lang.Object
	Fields []FieldDef
}

// Validate checks structural well-formedness of the definition.
func (d *ClassDef) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("klass: class definition with empty name")
	}
	if strings.HasSuffix(d.Name, "[]") {
		return fmt.Errorf("klass: %s: array classes are implicit, do not define them", d.Name)
	}
	seen := make(map[string]bool, len(d.Fields))
	for _, f := range d.Fields {
		if f.Name == "" {
			return fmt.Errorf("klass: %s: field with empty name", d.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("klass: %s: duplicate field %q", d.Name, f.Name)
		}
		seen[f.Name] = true
		if f.Kind == Invalid || f.Kind > Ref {
			return fmt.Errorf("klass: %s.%s: invalid kind", d.Name, f.Name)
		}
		if f.Kind == Ref && f.Class == "" {
			return fmt.Errorf("klass: %s.%s: reference field needs a class", d.Name, f.Name)
		}
		if f.Kind != Ref && f.Class != "" {
			return fmt.Errorf("klass: %s.%s: primitive field must not name a class", d.Name, f.Name)
		}
	}
	return nil
}

// Path is a set of class definitions shared by every node in the cluster —
// the classpath. It is safe for concurrent use.
type Path struct {
	mu   sync.RWMutex
	defs map[string]*ClassDef
}

// NewPath returns an empty classpath.
func NewPath() *Path { return &Path{defs: make(map[string]*ClassDef)} }

// Define adds definitions to the classpath. Redefining a name is an error.
func (p *Path) Define(defs ...*ClassDef) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range defs {
		if err := d.Validate(); err != nil {
			return err
		}
		if _, dup := p.defs[d.Name]; dup {
			return fmt.Errorf("klass: class %s already defined", d.Name)
		}
		p.defs[d.Name] = d
	}
	return nil
}

// MustDefine is Define but panics on error; intended for static schemas.
func (p *Path) MustDefine(defs ...*ClassDef) *Path {
	if err := p.Define(defs...); err != nil {
		panic(err)
	}
	return p
}

// Lookup returns the definition for name, or nil if absent.
func (p *Path) Lookup(name string) *ClassDef {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.defs[name]
}

// Names returns all defined class names, sorted.
func (p *Path) Names() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.defs))
	for n := range p.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseArrayName splits an array class name into its element type, e.g.
// "int[]" into Int32 and "Date[]" into Ref of class "Date". ok is false if
// name is not an array class name.
func ParseArrayName(name string) (elem Kind, elemClass string, ok bool) {
	if !strings.HasSuffix(name, "[]") {
		return Invalid, "", false
	}
	base := strings.TrimSuffix(name, "[]")
	switch base {
	case "boolean":
		return Bool, "", true
	case "byte":
		return Int8, "", true
	case "short":
		return Int16, "", true
	case "char":
		return Char, "", true
	case "int":
		return Int32, "", true
	case "float":
		return Float32, "", true
	case "long":
		return Int64, "", true
	case "double":
		return Float64, "", true
	default:
		return Ref, base, true
	}
}
