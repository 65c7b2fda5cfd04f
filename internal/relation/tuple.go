package relation

import "strings"

// Tuple is an ordered list of values conforming to some schema. Tuples
// are plain slices; cloning is explicit. A Relation stores no tuples —
// a row is its per-column codes — so Relation.Tuple and Relation.Tuples
// build fresh ones, and Insert copies a tuple's cells in.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Project returns the sub-tuple at the given attribute positions.
func (t Tuple) Project(idxs []int) Tuple {
	out := make(Tuple, len(idxs))
	for i, idx := range idxs {
		out[i] = t[idx]
	}
	return out
}

// EqualOn reports whether t and u agree (Value.Identical) on every listed
// position.
func (t Tuple) EqualOn(u Tuple, idxs []int) bool {
	for _, idx := range idxs {
		if !t[idx].Identical(u[idx]) {
			return false
		}
	}
	return true
}

// Equal reports component-wise identity of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Identical(u[i]) {
			return false
		}
	}
	return true
}

// Key encodes the values at the given positions into a composite key
// string suitable for map grouping. The encoding is injective.
func (t Tuple) Key(idxs []int) string {
	buf := make([]byte, 0, 16*len(idxs))
	for _, idx := range idxs {
		buf = t[idx].Encode(buf)
	}
	return string(buf)
}

// FullKey encodes the entire tuple into a composite key string.
func (t Tuple) FullKey() string {
	buf := make([]byte, 0, 16*len(t))
	for i := range t {
		buf = t[i].Encode(buf)
	}
	return string(buf)
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
