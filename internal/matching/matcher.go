package matching

import (
	"fmt"
	"sort"

	"semandaq/internal/relation"
)

// Match is an identified pair of tuples (left TID, right TID) and the
// RCK(s) that produced it.
type Match struct {
	LeftTID  int
	RightTID int
	Keys     []string // names of the RCKs that fired
}

// Matcher identifies tuple pairs across two relations using a set of
// RCKs: a pair matches when at least one key fires. Each key is
// evaluated with partition blocking on its equality pairs, so the
// quadratic comparison only happens within blocks (and only for keys
// with at least one equality pair; keys that are all-similarity fall
// back to a full scan, which the tutorial's derived keys avoid by
// construction). Blocks come from the matcher's PLI cache: keys sharing
// an equality-attribute set share one partition of the right relation,
// and repeated Runs against the same (unchanged) right relation
// partition nothing.
//
// The cache retains the most recent right relation between Runs (its
// PLIs pin it, and stale entries are only evicted on the next Run's
// misses). Drop the Matcher — or call ReleaseBlocks — when that
// relation must be reclaimable before the next Run; callers alternating
// between several right relations get no cross-Run reuse either way.
type Matcher struct {
	left   *relation.Schema
	right  *relation.Schema
	keys   []*RCK
	blocks *relation.IndexCache
}

// NewMatcher builds a matcher over the given keys (all over the same
// schema pair).
func NewMatcher(left, right *relation.Schema, keys []*RCK) (*Matcher, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("matching: matcher needs at least one RCK")
	}
	for _, k := range keys {
		if !k.left.Equal(left) || !k.right.Equal(right) {
			return nil, fmt.Errorf("matching: RCK %s is over a different schema pair", k.name)
		}
	}
	return &Matcher{left: left, right: right, keys: keys, blocks: relation.NewIndexCache()}, nil
}

// ReleaseBlocks drops the cached blocking partitions, releasing the
// matcher's reference to the last Run's right relation. The next Run
// rebuilds its blocks as if the matcher were fresh.
func (m *Matcher) ReleaseBlocks() { m.blocks.Reset() }

// Run returns all matches between l and r, sorted by (LeftTID, RightTID).
func (m *Matcher) Run(l, r *relation.Relation) ([]Match, error) {
	if !l.Schema().Equal(m.left) || !r.Schema().Equal(m.right) {
		return nil, fmt.Errorf("matching: relations do not fit the matcher's schemas")
	}
	type pairKey struct{ lt, rt int }
	hits := map[pairKey][]string{}

	for _, k := range m.keys {
		var eqLeft, eqRight []int
		var simPairs []AttrPair
		for _, p := range k.pairs {
			if p.Cmp.IsEq() {
				eqLeft = append(eqLeft, p.Left)
				eqRight = append(eqRight, p.Right)
			} else {
				simPairs = append(simPairs, p)
			}
		}
		verify := func(lt, rt int) {
			for _, p := range simPairs {
				if !p.Cmp.Compare(l.Get(lt, p.Left), r.Get(rt, p.Right)) {
					return
				}
			}
			pk := pairKey{lt, rt}
			hits[pk] = append(hits[pk], k.name)
		}
		if len(eqLeft) > 0 {
			// Block on the equality attributes: probe the right
			// relation's cached partition with the left tuple's values.
			pli := m.blocks.Get(r, eqRight)
			for lt, ltup := range l.Tuples() {
				// NULL blocking keys match nothing.
				skip := false
				for _, a := range eqLeft {
					if ltup[a].IsNull() {
						skip = true
						break
					}
				}
				if skip {
					continue
				}
				for _, rt := range pli.Lookup(ltup.Project(eqLeft)) {
					verify(lt, rt)
				}
			}
			continue
		}
		// No equality pair: full cross comparison.
		for lt := 0; lt < l.Len(); lt++ {
			for rt := 0; rt < r.Len(); rt++ {
				verify(lt, rt)
			}
		}
	}

	out := make([]Match, 0, len(hits))
	for pk, keys := range hits {
		sort.Strings(keys)
		out = append(out, Match{LeftTID: pk.lt, RightTID: pk.rt, Keys: keys})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LeftTID != out[j].LeftTID {
			return out[i].LeftTID < out[j].LeftTID
		}
		return out[i].RightTID < out[j].RightTID
	})
	return out, nil
}

// Quality holds precision/recall/F1 of a match result against ground
// truth pairs.
type Quality struct {
	Precision float64
	Recall    float64
	F1        float64
	TruePos   int
	FalsePos  int
	FalseNeg  int
}

// Evaluate scores matches against the set of true pairs.
func Evaluate(matches []Match, truth map[[2]int]bool) Quality {
	tp, fp := 0, 0
	seen := map[[2]int]bool{}
	for _, m := range matches {
		key := [2]int{m.LeftTID, m.RightTID}
		if seen[key] {
			continue
		}
		seen[key] = true
		if truth[key] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for key := range truth {
		if !seen[key] {
			fn++
		}
	}
	q := Quality{TruePos: tp, FalsePos: fp, FalseNeg: fn}
	if tp+fp > 0 {
		q.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		q.Recall = float64(tp) / float64(tp+fn)
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}

// String renders the quality triple.
func (q Quality) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		q.Precision, q.Recall, q.F1, q.TruePos, q.FalsePos, q.FalseNeg)
}
