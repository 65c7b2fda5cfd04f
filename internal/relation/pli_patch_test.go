package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomPatchValue draws a replacement cell value for column attr from
// the randomMixedRelation domains PLUS novel values and kind-mismatched
// writes, so patches exercise fresh-code interning (the re-homed TID
// opens a provisional group Compact must splice at a new rank) as well
// as moves between existing groups, NULLs included.
func randomPatchValue(rng *rand.Rand, attr int) Value {
	strDomain := []string{"", "a", "ab", "abc", "1", "12", "1:", "12:", ":", "x;", "-3", "edi", "gla"}
	switch attr {
	case 0, 3:
		switch rng.Intn(10) {
		case 0:
			return Null()
		case 1:
			return String(fmt.Sprintf("0patch-%d", rng.Intn(400))) // novel code
		default:
			return String(strDomain[rng.Intn(len(strDomain))])
		}
	case 1:
		switch rng.Intn(10) {
		case 0:
			return Null()
		case 1:
			return Float(float64(rng.Intn(7) - 3)) // kind-mismatched write
		case 2:
			return Int(int64(300 + rng.Intn(200))) // novel code
		default:
			return Int(int64(rng.Intn(7) - 3))
		}
	default:
		switch rng.Intn(10) {
		case 0:
			return Null()
		case 1:
			return Float(float64(rng.Intn(60)) + 0.25) // novel code
		default:
			return Float(float64(rng.Intn(5)) + 0.5)
		}
	}
}

// TestPatchedCacheMatchesBuildPLI is the tentpole property of per-cell
// PLI patching: on randomized mixed-kind relations (NULLs, mixed-kind
// columns, novel codes), interleaved rounds of Set edits and appends
// are absorbed by the IndexCache purely through journal drains and
// advances — the build counter stays frozen — and every returned index
// is byte-identical (groups, member order, group order, tid->group) to
// counting-sorting the mutated relation from scratch. GetDelta rounds
// leave the drained-but-dirty state in place; the follow-up Get must
// compact it back to canonical order.
func TestPatchedCacheMatchesBuildPLI(t *testing.T) {
	attrSets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {1, 0}, {2, 1}, {0, 2, 3}, {3, 2, 1, 0}}
	for seed := int64(1); seed <= 8; seed++ {
		r := randomMixedRelation(t, seed, 140+int(seed)*31)
		rng := rand.New(rand.NewSource(seed * 1289))
		cache := NewIndexCache()
		for _, attrs := range attrSets {
			cache.Get(r, attrs)
		}
		builds := cache.Stats().Misses
		for round := 0; round < 4; round++ {
			for k, edits := 0, 2+rng.Intn(5); k < edits; k++ {
				tid, attr := rng.Intn(r.Len()), rng.Intn(4)
				r.Set(tid, attr, randomPatchValue(rng, attr))
			}
			if round%2 == 1 {
				appendRandomRows(t, r, rng, 10+rng.Intn(15))
			}
			for _, attrs := range attrSets {
				ctx := fmt.Sprintf("seed %d round %d attrs %v", seed, round, attrs)
				if rng.Intn(2) == 0 {
					// Tolerant read first: the drained-but-uncompacted
					// index must still cover every TID exactly once and
					// agree with GroupOf.
					d := cache.GetDelta(r, attrs)
					if !d.fresh(r) {
						t.Fatalf("%s: GetDelta result not fresh", ctx)
					}
					n := 0
					for g := 0; g < d.NumGroups(); g++ {
						for _, tid := range d.Group(g) {
							if d.GroupOf(tid) != g {
								t.Fatalf("%s: GroupOf(%d) = %d, group iteration says %d",
									ctx, tid, d.GroupOf(tid), g)
							}
							n++
						}
					}
					if n != r.Len() {
						t.Fatalf("%s: partition covers %d of %d tuples", ctx, n, r.Len())
					}
				}
				got := cache.Get(r, attrs)
				samePLI(t, ctx, r, got, BuildPLI(r, attrs))
			}
		}
		if s := cache.Stats(); s.Misses != builds {
			t.Fatalf("seed %d: edits caused rebuilds: %+v", seed, s)
		}
		if s := cache.Stats(); s.Patches == 0 {
			t.Fatalf("seed %d: no journal drains counted: %+v", seed, s)
		}
	}
}

// TestPublicPatchMatchesBuildPLI drives the record-at-a-time PLI.patch
// API directly from the relation's journals (the discipline the doc
// demands: each record once, in journal order) and asserts the patched
// index compacts to exactly the from-scratch build — including when the
// journals of a multi-attribute index are drained one attribute at a
// time, so the lookup map must materialize under the pre-patch overlay
// of records still pending on the OTHER attribute.
func TestPublicPatchMatchesBuildPLI(t *testing.T) {
	attrSets := [][]int{{0}, {1, 0}, {3, 2, 1, 0}}
	for seed := int64(1); seed <= 6; seed++ {
		r := randomMixedRelation(t, seed, 130+int(seed)*17)
		rng := rand.New(rand.NewSource(seed * 733))
		for _, attrs := range attrSets {
			p := BuildPLI(r, attrs)
			marks := make(map[int]uint64, 4)
			for a := 0; a < 4; a++ {
				marks[a] = r.PatchVersion(a)
			}
			for k := 0; k < 10+rng.Intn(10); k++ {
				tid, attr := rng.Intn(r.Len()), rng.Intn(4)
				r.Set(tid, attr, randomPatchValue(rng, attr))
			}
			for _, a := range attrs {
				log, ok := r.PatchesSince(a, marks[a])
				if !ok {
					t.Fatalf("seed %d attrs %v: journal trimmed unexpectedly", seed, attrs)
				}
				for _, pc := range log {
					p.patch(pc.TID, a, pc.Old, pc.New)
				}
			}
			if !p.fresh(r) {
				t.Fatalf("seed %d attrs %v: fully patched PLI not fresh", seed, attrs)
			}
			p.compact()
			samePLI(t, fmt.Sprintf("seed %d attrs %v", seed, attrs), r, p, BuildPLI(r, attrs))
			// Un-journaled columns: edits to attributes the index does not
			// mention never disturbed it (checked implicitly by fresh
			// above, since their journals were not drained into p).
		}
	}
}

// TestPatchJournalOverflow pins the journal-overflow escape hatch: a
// column edited more times than maxPatchLogFor allows hard-invalidates
// (version bump, journal cleared), the cache rebuilds exactly the
// affected index, and the rebuilt index is correct.
func TestPatchJournalOverflow(t *testing.T) {
	r := randomMixedRelation(t, 9, 200)
	cache := NewIndexCache()
	p0 := cache.Get(r, []int{0})
	p1 := cache.Get(r, []int{1})
	rng := rand.New(rand.NewSource(4242))
	vc := r.ColumnVersion(0)
	for i := 0; i < maxPatchLogFor(r.Len())+1; i++ {
		// Always-novel values: every Set journals (a code-identical Set
		// journals nothing and would not fill the log).
		r.Set(rng.Intn(r.Len()), 0, String(fmt.Sprintf("ov-%d", i)))
	}
	if r.ColumnVersion(0) == vc {
		t.Fatalf("journal overflow did not hard-invalidate the column")
	}
	if p0.fresh(r) || p0.advanceableTo(r) {
		t.Fatalf("PLI survived a journal overflow")
	}
	before := cache.Stats()
	got := cache.Get(r, []int{0})
	if got == p0 {
		t.Fatalf("cache served a pre-overflow PLI")
	}
	if s := cache.Stats(); s.Misses != before.Misses+1 {
		t.Fatalf("overflow should rebuild: %+v -> %+v", before, s)
	}
	samePLI(t, "post-overflow", r, got, BuildPLI(r, []int{0}))
	// The untouched column's index never noticed.
	if got := cache.Get(r, []int{1}); got != p1 || !got.fresh(r) {
		t.Fatalf("overflow on column 0 disturbed the index over column 1")
	}
}

// TestPatchLargePendingRebuilds pins the patch-or-rebuild decision: when
// a single drain would re-home more than an eighth of the index, catchUp
// declines and the cache rebuilds instead (cheaper than n/8 group
// moves), still yielding a correct index.
func TestPatchLargePendingRebuilds(t *testing.T) {
	r := randomMixedRelation(t, 5, 160)
	cache := NewIndexCache()
	cache.Get(r, []int{2})
	rng := rand.New(rand.NewSource(17))
	// Touch well over n/8 distinct TIDs in one batch.
	for tid := 0; tid < r.Len(); tid += 2 {
		r.Set(tid, 2, randomPatchValue(rng, 2))
	}
	before := cache.Stats()
	got := cache.Get(r, []int{2})
	if s := cache.Stats(); s.Misses != before.Misses+1 || s.Patches != before.Patches {
		t.Fatalf("bulk edit should rebuild, not drain %d patches: %+v -> %+v",
			r.Len()/2, before, s)
	}
	samePLI(t, "bulk-edit rebuild", r, got, BuildPLI(r, []int{2}))
}

// TestTruncateDropsPatchJournal pins the session-rollback contract:
// Truncate (the append rollback primitive) clears the patch journal and
// hard-invalidates, so an index cannot drain patches journaled against
// rows that no longer exist — even if the relation grows back to the
// same length.
func TestTruncateDropsPatchJournal(t *testing.T) {
	r := randomMixedRelation(t, 13, 150)
	p := BuildPLI(r, []int{0, 1})
	rng := rand.New(rand.NewSource(7))
	appendRandomRows(t, r, rng, 10)
	r.Set(r.Len()-3, 0, String("0rolled-back"))
	r.Truncate(150)
	if p.fresh(r) || p.advanceableTo(r) {
		t.Fatalf("PLI survived Truncate with a pending patch")
	}
	if _, ok := r.PatchesSince(0, 0); ok {
		t.Fatalf("Truncate retained the patch journal")
	}
}
