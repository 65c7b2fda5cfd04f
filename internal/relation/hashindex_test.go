package relation

import "sort"

// HashIndex maps composite keys over a fixed attribute list to the TIDs
// holding that key: the legacy string-keyed index, kept as the reference
// the PLI equivalence tests diff against. PLI groups are byte-identical
// to HashIndex buckets in sorted-key order, and PLI.Lookup replaces
// Lookup/LookupKey probing. It is a snapshot: mutations to the relation
// after BuildIndex are not reflected.
type HashIndex struct {
	attrs   []int
	buckets map[string][]int
}

// BuildIndex constructs a hash index on the given attribute positions.
func BuildIndex(r *Relation, attrs []int) *HashIndex {
	idx := &HashIndex{
		attrs:   append([]int(nil), attrs...),
		buckets: make(map[string][]int, r.Len()),
	}
	for tid, t := range r.Tuples() {
		k := t.Key(idx.attrs)
		idx.buckets[k] = append(idx.buckets[k], tid)
	}
	return idx
}

// Lookup returns the TIDs whose indexed attributes encode to the same key
// as t's. The returned slice aliases index storage.
func (ix *HashIndex) Lookup(t Tuple) []int {
	return ix.buckets[t.Key(ix.attrs)]
}

// LookupKey returns the TIDs stored under a pre-encoded key.
func (ix *HashIndex) LookupKey(key string) []int { return ix.buckets[key] }

// Keys returns every distinct key in sorted order.
func (ix *HashIndex) Keys() []string {
	out := make([]string, 0, len(ix.buckets))
	for k := range ix.buckets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of distinct keys.
func (ix *HashIndex) Size() int { return len(ix.buckets) }
