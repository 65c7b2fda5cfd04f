package matching

import (
	"sort"

	"semandaq/internal/relation"
)

// SortedNeighborhood implements the classical merge/purge baseline
// (Hernández & Stolfo, SIGMOD 1995) that the tutorial's constraint-based
// matching improves on: sort both relations by a blocking key rendered
// from selected attributes, slide a window of the given size over the
// merged order, and compare record pairs from opposite relations that
// fall inside the same window with the supplied RCK.
//
// It trades recall for speed: true matches whose blocking keys sort far
// apart are never compared — the weakness TestSortedNeighborhoodMisses
// DistantPairs demonstrates and that the RCK matcher's attribute-level
// blocking avoids.
type SortedNeighborhood struct {
	left     *relation.Schema
	right    *relation.Schema
	leftKey  []int
	rightKey []int
	window   int
	key      *RCK
}

// NewSortedNeighborhood builds the matcher. The key attribute lists
// (positionally paired) form the sort key; window is the neighborhood
// size in records (≥ 2).
func NewSortedNeighborhood(left, right *relation.Schema, leftKey, rightKey []string, window int, key *RCK) (*SortedNeighborhood, error) {
	if window < 2 {
		return nil, errWindow
	}
	lk, err := left.Indexes(leftKey...)
	if err != nil {
		return nil, err
	}
	rk, err := right.Indexes(rightKey...)
	if err != nil {
		return nil, err
	}
	if len(lk) == 0 || len(lk) != len(rk) {
		return nil, errKeyLists
	}
	if !key.left.Equal(left) || !key.right.Equal(right) {
		return nil, errKeySchemas
	}
	return &SortedNeighborhood{
		left: left, right: right,
		leftKey: lk, rightKey: rk,
		window: window, key: key,
	}, nil
}

type snErr string

func (e snErr) Error() string { return string(e) }

const (
	errWindow     = snErr("matching: sorted-neighborhood window must be ≥ 2")
	errKeyLists   = snErr("matching: sort key lists must be non-empty and equal length")
	errKeySchemas = snErr("matching: RCK schemas do not match the matcher's")
)

// Run slides the window over the merged sort order and returns the
// matches found, sorted by (LeftTID, RightTID).
func (sn *SortedNeighborhood) Run(l, r *relation.Relation) ([]Match, error) {
	if !l.Schema().Equal(sn.left) || !r.Schema().Equal(sn.right) {
		return nil, errKeySchemas
	}
	type entry struct {
		sortKey string
		tid     int
		isLeft  bool
	}
	entries := make([]entry, 0, l.Len()+r.Len())
	renderKey := func(t relation.Tuple, attrs []int) string {
		out := ""
		for _, a := range attrs {
			out += t[a].String() + "\x00"
		}
		return out
	}
	lrows, rrows := l.Tuples(), r.Tuples()
	for tid, t := range lrows {
		entries = append(entries, entry{renderKey(t, sn.leftKey), tid, true})
	}
	for tid, t := range rrows {
		entries = append(entries, entry{renderKey(t, sn.rightKey), tid, false})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].sortKey < entries[j].sortKey })

	seen := map[[2]int]bool{}
	var out []Match
	for i := range entries {
		hi := i + sn.window
		if hi > len(entries) {
			hi = len(entries)
		}
		for j := i + 1; j < hi; j++ {
			a, b := entries[i], entries[j]
			if a.isLeft == b.isLeft {
				continue
			}
			lt, rt := a.tid, b.tid
			if !a.isLeft {
				lt, rt = b.tid, a.tid
			}
			pk := [2]int{lt, rt}
			if seen[pk] {
				continue
			}
			if sn.key.Matches(lrows[lt], rrows[rt]) {
				seen[pk] = true
				out = append(out, Match{LeftTID: lt, RightTID: rt, Keys: []string{sn.key.name}})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LeftTID != out[j].LeftTID {
			return out[i].LeftTID < out[j].LeftTID
		}
		return out[i].RightTID < out[j].RightTID
	})
	return out, nil
}
