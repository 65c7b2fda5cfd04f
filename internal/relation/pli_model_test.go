package relation

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"
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

// keyMapOf returns the key map of p's base and the map's identity.
func keyMapOf(p *PLI) (map[string]int32, unsafe.Pointer) {
	p.lookupMu.Lock()
	defer p.lookupMu.Unlock()
	return p.lookup, reflect.ValueOf(p.lookup).UnsafePointer()
}

// TestFoldSharesKeyMap pins why a fold no longer rehashes: group ids are
// stable, so neither fold writes the key map. Each round appends novel
// keys and empties two groups by Set — a new group the previous lookup
// opened in the overlay and a base group — and then folds in place
// (the stale entry's Get advances, patches and folds it) or into a new
// PLI (GetDelta advances and patches, then Get folds a copy). Either
// way the folded base holds the very map the index started with, every
// key that survives keeps its id, the map has one entry per live group,
// and each group's key leads Lookup back to it.
func TestFoldSharesKeyMap(t *testing.T) {
	attrs := []int{0, 1}
	for _, copyFold := range []bool{false, true} {
		r := randomMixedRelation(t, 41, 300)
		rng := rand.New(rand.NewSource(43))
		cache := NewIndexCache()
		novel := func(tag string, round int) int {
			r.MustInsert(Tuple{String(fmt.Sprintf("0fold-%s-%d", tag, round)), Int(int64(700 + round)), Float(0.5), Null()})
			return r.Len() - 1
		}
		prev := novel("base", -1)
		p := cache.Get(r, attrs)
		p.Lookup(r.Tuple(0).Project(attrs)) // builds the key map
		m0, id0 := keyMapOf(p)
		ids := maps.Clone(m0)
		for round := 0; round < 4; round++ {
			ctx := fmt.Sprintf("copy fold %v round %d", copyFold, round)
			fresh := novel("fresh", round)
			if d := cache.GetDelta(r, attrs); d != p || d.tailLen() == 0 {
				t.Fatalf("%s: GetDelta did not advance the entry in place", ctx)
			}
			appendRandomRows(t, r, rng, 6)
			next := novel("base", round)
			r.Set(fresh, 1, Int(int64(900+round))) // empties the overlay's new group
			r.Set(prev, 0, String("edi"))          // empties a base group
			prev = next

			var reader *PLI // a GetDelta reader's PLI, still probed after the copy fold
			if copyFold {
				if reader = cache.GetDelta(r, attrs); reader != p || reader.tailLen() == 0 {
					t.Fatalf("%s: GetDelta did not catch the entry up in place", ctx)
				}
			}
			got := cache.Get(r, attrs)
			if got.tailLen() != 0 || (got == p) == copyFold {
				t.Fatalf("%s: Get folded into the wrong PLI (same %v, overlay %d)", ctx, got == p, got.tailLen())
			}
			p = got
			if _, id := keyMapOf(got); id != id0 {
				t.Fatalf("%s: the fold replaced the key map", ctx)
			}
			for key, id := range ids {
				if now, ok := m0[key]; ok && now != id {
					t.Fatalf("%s: a key's group id moved from %d to %d", ctx, id, now)
				}
			}
			ids = maps.Clone(m0)
			if len(m0) != got.NumGroups() {
				t.Fatalf("%s: key map has %d entries for %d groups", ctx, len(m0), got.NumGroups())
			}
			for g := 0; g < got.NumGroups(); g++ {
				members := got.Group(g)
				if hit := got.Lookup(r.Tuple(members[0]).Project(attrs)); !slices.Equal(hit, members) {
					t.Fatalf("%s: group %d's key looks up %v, want %v", ctx, g, hit, members)
				}
			}
			samePLI(t, ctx, r, got, BuildPLI(r, attrs))
			if reader != nil {
				checkDeltaAgainst(t, ctx+" reader", r, rng, reader, BuildPLI(r, attrs), attrs)
			}
		}
	}
}

// TestFoldReclaimsDroppedIDs pins the bound on the id -> index array: an
// edit that moves a singleton group's only member to a novel key drops
// one id and hands out another, and the in-place fold renumbers the
// key map once dropped ids outnumber the live groups, so the array does
// not grow with the number of edits.
func TestFoldReclaimsDroppedIDs(t *testing.T) {
	r := New(MustSchema("ids", Attribute{Name: "K", Kind: KindString}, Attribute{Name: "V", Kind: KindInt}))
	for i := 0; i < 40; i++ {
		r.MustInsert(Tuple{String(fmt.Sprintf("k%d", i)), Int(int64(i % 3))})
	}
	attrs := []int{0}
	cache := NewIndexCache()
	cache.Get(r, attrs).Lookup(Tuple{String("k0")}) // builds the key map
	for edit := 0; edit < 400; edit++ {
		r.Set(edit%r.Len(), 0, String(fmt.Sprintf("e%d", edit)))
		got := cache.Get(r, attrs)
		m, _ := keyMapOf(got)
		if nb := got.NumGroups(); len(got.index) > 2*nb+64 || len(m) != nb {
			t.Fatalf("edit %d: %d ids and %d keys for %d groups", edit, len(got.index), len(m), nb)
		}
		for g := 0; g < got.NumGroups(); g++ {
			if hit := got.Lookup(r.Tuple(got.Group(g)[0]).Project(attrs)); !slices.Equal(hit, got.Group(g)) {
				t.Fatalf("edit %d: group %d's key looks up %v", edit, g, hit)
			}
		}
		samePLI(t, fmt.Sprintf("edit %d", edit), r, got, BuildPLI(r, attrs))
	}
}
