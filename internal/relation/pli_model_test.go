package relation

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// checkDeltaAgainst asserts a delta-tolerant index (IndexCache.GetDelta)
// describes the same partition as the canonical reference, as sets: its
// non-empty groups are exactly the reference's groups (members
// ascending), GroupOf agrees with group iteration, every TID is covered
// once, and Lookup answers the same members for present and absent keys.
func checkDeltaAgainst(t *testing.T, ctx string, r *Relation, rng *rand.Rand, d, ref *PLI, attrs []int) {
	t.Helper()
	covered, live := 0, 0
	for g := 0; g < d.NumGroups(); g++ {
		members := d.Group(g)
		if len(members) == 0 {
			continue // patched empty; dropped by the next canonical read
		}
		live++
		if !slices.Equal(members, ref.Group(ref.GroupOf(members[0]))) {
			t.Fatalf("%s: delta group %d = %v, reference has %v", ctx, g, members, ref.Group(ref.GroupOf(members[0])))
		}
		for _, tid := range members {
			if d.GroupOf(tid) != g {
				t.Fatalf("%s: GroupOf(%d) = %d, group iteration says %d", ctx, tid, d.GroupOf(tid), g)
			}
		}
		covered += len(members)
	}
	if covered != r.Len() || live != ref.NumGroups() {
		t.Fatalf("%s: delta covers %d of %d tuples in %d groups, want %d groups", ctx, covered, r.Len(), live, ref.NumGroups())
	}
	for k := 0; k < 3 && r.Len() > 0; k++ {
		probe := r.Tuple(rng.Intn(r.Len())).Project(attrs)
		if got, want := d.Lookup(probe), ref.Lookup(probe); !slices.Equal(got, want) {
			t.Fatalf("%s: Lookup(%v) = %v, want %v", ctx, probe, got, want)
		}
	}
	absent := make([]Value, len(attrs))
	for i := range absent {
		absent[i] = String("never-interned")
	}
	if got := d.Lookup(absent); len(got) != 0 {
		t.Fatalf("%s: Lookup of an absent key = %v", ctx, got)
	}
}

// TestPLIModel is a sequential model of every state crossing of a cached
// partition: seeded random interleavings of inserts (novel and existing
// codes), cell edits (plain, onto a group's representative, emptying a
// whole group, a bulk edit past the patch-or-rebuild threshold) and the
// three lookups, under a byte budget and spill store small enough that
// entries are demoted and paged back in between steps. The reference is
// a from-scratch BuildPLI after every lookup: Get and GetVia must match
// it byte for byte, GetDelta as sets.
func TestPLIModel(t *testing.T) {
	attrSets := [][]int{{0}, {1}, {3}, {0, 1}, {2, 1}, {0, 1, 2}, {3, 2, 1, 0}}
	for seed := int64(1); seed <= 6; seed++ {
		r := randomMixedRelation(t, seed, 90+int(seed)*23)
		rng := rand.New(rand.NewSource(seed * 6151))
		store, err := NewSpillStore(filepath.Join(t.TempDir(), "spill"))
		if err != nil {
			t.Fatalf("store: %v", err)
		}
		cache := NewIndexCache()
		cache.SetSpill(store)
		// Room for about two of the seven partitions: the rest live in
		// segment files and come back through page-in + catch-up.
		cache.SetBudget(2 * BuildPLI(r, []int{0}).MemSize())
		for step := 0; step < 400; step++ {
			attrs := attrSets[rng.Intn(len(attrSets))]
			ctx := fmt.Sprintf("seed %d step %d attrs %v", seed, step, attrs)
			switch op := rng.Intn(20); {
			case op < 4:
				appendRandomRows(t, r, rng, 1+rng.Intn(4))
			case op < 7:
				tid, attr := rng.Intn(r.Len()), rng.Intn(4)
				r.Set(tid, attr, randomPatchValue(rng, attr))
			case op == 7: // move a group's representative (its first member) away
				ref := BuildPLI(r, attrs)
				rep := ref.Group(rng.Intn(ref.NumGroups()))[0]
				attr := attrs[rng.Intn(len(attrs))]
				r.Set(rep, attr, randomPatchValue(rng, attr))
			case op == 8: // empty a small group entirely
				ref := BuildPLI(r, attrs)
				g := rng.Intn(ref.NumGroups())
				if members := ref.Group(g); len(members) <= 4 {
					attr := attrs[rng.Intn(len(attrs))]
					v := randomPatchValue(rng, attr)
					for _, tid := range slices.Clone(members) {
						r.Set(tid, attr, v)
					}
				}
			case op == 9 && step%7 == 0: // bulk edit: a rebuild is cheaper than the drain
				attr := attrs[0]
				for tid := 0; tid < r.Len(); tid += 3 {
					r.Set(tid, attr, randomPatchValue(rng, attr))
				}
			case op < 13:
				d := cache.GetDelta(r, attrs)
				if !d.fresh(r) {
					t.Fatalf("%s: GetDelta result not fresh", ctx)
				}
				checkDeltaAgainst(t, ctx+" GetDelta", r, rng, d, BuildPLI(r, attrs), attrs)
			case op < 17:
				samePLI(t, ctx+" Get", r, cache.Get(r, attrs), BuildPLI(r, attrs))
			default:
				samePLI(t, ctx+" GetVia", r, cache.GetVia(r, attrs), BuildPLI(r, attrs))
			}
		}
		for _, attrs := range attrSets {
			ctx := fmt.Sprintf("seed %d final attrs %v", seed, attrs)
			got := cache.Get(r, attrs)
			sameFlat(t, ctx, got, BuildPLI(r, attrs))
			samePLI(t, ctx, r, got, BuildPLI(r, attrs))
		}
		st := cache.Stats()
		if st.Advances == 0 || st.Patches == 0 || st.Spills == 0 || st.Pageins == 0 {
			t.Fatalf("seed %d: model missed a state crossing: %+v", seed, st)
		}
	}
}

// TestCompactKeepsKeyMap pins what a canonical read hands the next
// append: once an entry's key → group map is built (the first advance
// builds it), the compacted entry Get publishes still has it, remapped
// to the new group numbering — so the following GetDelta probes it
// instead of rebuilding one entry per group. Novel keys in the delta
// renumber the groups, which is the case that used to drop the map.
func TestCompactKeepsKeyMap(t *testing.T) {
	r := randomMixedRelation(t, 33, 300)
	attrs := []int{0, 1}
	cache := NewIndexCache()
	cache.Get(r, attrs)
	rng := rand.New(rand.NewSource(35))
	for round := 0; round < 4; round++ {
		appendRandomRows(t, r, rng, 6)
		r.MustInsert(Tuple{String(fmt.Sprintf("0novel-%d", round)), Int(int64(500 + round)), Float(0.5), Null()})
		if round%2 == 1 {
			r.Set(rng.Intn(r.Len()), 0, String(fmt.Sprintf("zz-patched-%d", round)))
		}
		d := cache.GetDelta(r, attrs)
		if d.tailLen() == 0 {
			t.Fatalf("round %d: GetDelta left no delta to compact", round)
		}
		got := cache.Get(r, attrs)
		if got.tailLen() != 0 {
			t.Fatalf("round %d: Get handed out an uncompacted index", round)
		}
		got.lookupMu.Lock()
		m := got.lookup
		got.lookupMu.Unlock()
		if m == nil {
			t.Fatalf("round %d: compaction dropped the key map", round)
		}
		if len(m) != got.NumGroups() {
			t.Fatalf("round %d: carried key map has %d entries for %d groups", round, len(m), got.NumGroups())
		}
		for g := 0; g < got.NumGroups(); g++ {
			probe := r.Tuple(got.Group(g)[0]).Project(attrs)
			if members := got.Lookup(probe); !slices.Equal(members, got.Group(g)) {
				t.Fatalf("round %d: carried key map sends group %d's key to %v", round, g, members)
			}
		}
	}
}
