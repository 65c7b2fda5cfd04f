package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomMixedRelation builds a relation over string/int/float columns
// with small domains (so groups are non-trivial), NULLs, awkward string
// values chosen to stress the prefix-free encoding (digits, colons,
// prefixes of each other), and a round of post-insert Set edits —
// including kind-mismatched writes into the int column, which is the
// historical unchecked Set behavior that produces mixed-kind columns.
func randomMixedRelation(t testing.TB, seed int64, n int) *Relation {
	t.Helper()
	schema := MustSchema("rnd",
		Attribute{Name: "S", Kind: KindString},
		Attribute{Name: "I", Kind: KindInt},
		Attribute{Name: "F", Kind: KindFloat},
		Attribute{Name: "S2", Kind: KindString},
	)
	rng := rand.New(rand.NewSource(seed))
	strDomain := []string{"", "a", "ab", "abc", "1", "12", "1:", "12:", ":", "x;", "-3", "edi", "gla"}
	r := New(schema)
	randS := func() Value {
		if rng.Intn(10) == 0 {
			return Null()
		}
		return String(strDomain[rng.Intn(len(strDomain))])
	}
	randI := func() Value {
		if rng.Intn(10) == 0 {
			return Null()
		}
		return Int(int64(rng.Intn(7) - 3))
	}
	randF := func() Value {
		if rng.Intn(10) == 0 {
			return Null()
		}
		if rng.Intn(2) == 0 {
			// Integral floats; via Insert these may also arrive as Int
			// and be coerced, exercising the cross-kind path.
			return Float(float64(rng.Intn(5)))
		}
		return Float(float64(rng.Intn(5)) + 0.5)
	}
	for i := 0; i < n; i++ {
		f := randF()
		if rng.Intn(3) == 0 && !f.IsNull() && f.FloatVal() == float64(int64(f.FloatVal())) {
			f = Int(int64(f.FloatVal())) // Insert must coerce this
		}
		r.MustInsert(Tuple{randS(), randI(), f, randS()})
	}
	for k := 0; k < n/4; k++ {
		tid, attr := rng.Intn(n), rng.Intn(4)
		switch attr {
		case 0, 3:
			r.Set(tid, attr, randS())
		case 1:
			if rng.Intn(4) == 0 {
				// Kind-mismatched write: a float value in the int column.
				r.Set(tid, attr, Float(float64(rng.Intn(7)-3)))
			} else {
				r.Set(tid, attr, randI())
			}
		case 2:
			r.Set(tid, attr, randF())
		}
	}
	return r
}

// TestPLIMatchesHashIndex is the grouping-agreement regression promised
// by the Value.Encode documentation: on randomized relations (including
// coerced inserts and mixed-kind Set writes) the PLI partition has
// exactly the buckets of the legacy string-key HashIndex, in exactly the
// sorted-key order.
func TestPLIMatchesHashIndex(t *testing.T) {
	attrSets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {1, 0}, {2, 1}, {0, 2, 3}, {3, 2, 1, 0}}
	for seed := int64(1); seed <= 8; seed++ {
		r := randomMixedRelation(t, seed, 200+int(seed)*37)
		for _, attrs := range attrSets {
			idx := BuildIndex(r, attrs)
			pli := BuildPLI(r, attrs)
			keys := idx.Keys()
			if pli.NumGroups() != len(keys) {
				t.Fatalf("seed %d attrs %v: PLI has %d groups, HashIndex %d keys",
					seed, attrs, pli.NumGroups(), len(keys))
			}
			for g, key := range keys {
				want := idx.LookupKey(key)
				got := pli.Group(g)
				if len(got) != len(want) {
					t.Fatalf("seed %d attrs %v group %d: PLI %v vs HashIndex %v", seed, attrs, g, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d attrs %v group %d: PLI %v vs HashIndex %v", seed, attrs, g, got, want)
					}
				}
				for _, tid := range got {
					if pli.GroupOf(tid) != g {
						t.Fatalf("seed %d attrs %v: GroupOf(%d) = %d, want %d", seed, attrs, tid, pli.GroupOf(tid), g)
					}
				}
			}
		}
	}
}

// samePartition asserts two PLIs have byte-identical groups: same group
// count, same group order, same member order.
func samePartition(t *testing.T, ctx string, got, want *PLI) {
	t.Helper()
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("%s: %d groups, want %d", ctx, got.NumGroups(), want.NumGroups())
	}
	for g := 0; g < want.NumGroups(); g++ {
		gg, wg := got.Group(g), want.Group(g)
		if len(gg) != len(wg) {
			t.Fatalf("%s group %d: %v, want %v", ctx, g, gg, wg)
		}
		for i := range wg {
			if gg[i] != wg[i] {
				t.Fatalf("%s group %d: %v, want %v", ctx, g, gg, wg)
			}
		}
	}
}

// TestIntersectMatchesBuildPLI is the partition-intersection property:
// on random mixed-kind relations, refining PLI[X] by one extra
// attribute y produces byte-identical groups, member order, and group
// order to counting-sorting X++[y] from scratch — for every prefix X of
// several attribute chains, chained intersections included.
func TestIntersectMatchesBuildPLI(t *testing.T) {
	chains := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0}, {2, 0}}
	for seed := int64(1); seed <= 8; seed++ {
		r := randomMixedRelation(t, seed, 150+int(seed)*41)
		for _, chain := range chains {
			p := BuildPLI(r, chain[:1])
			for k := 2; k <= len(chain); k++ {
				p = p.intersect(chain[k-1])
				want := BuildPLI(r, chain[:k])
				samePartition(t, fmt.Sprintf("seed %d chain %v level %d", seed, chain, k), p, want)
				for tid := 0; tid < r.Len(); tid++ {
					if p.GroupOf(tid) != want.GroupOf(tid) {
						t.Fatalf("seed %d chain %v level %d: GroupOf(%d) = %d, want %d",
							seed, chain, k, tid, p.GroupOf(tid), want.GroupOf(tid))
					}
				}
				if !p.fresh(r) {
					t.Fatalf("seed %d chain %v level %d: intersected PLI is not fresh", seed, chain, k)
				}
			}
		}
	}
}

// TestPLILookupMatchesHashIndex checks that PLI.Lookup agrees with
// HashIndex.LookupKey for every key present in the relation and returns
// nil for foreign values that were never interned.
func TestPLILookupMatchesHashIndex(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := randomMixedRelation(t, seed, 200)
		for _, attrs := range [][]int{{0}, {1, 2}, {0, 3}, {2, 1, 0}} {
			idx := BuildIndex(r, attrs)
			pli := BuildPLI(r, attrs)
			for tid := 0; tid < r.Len(); tid++ {
				probe := r.Tuple(tid).Project(attrs)
				want := idx.Lookup(r.Tuple(tid))
				got := pli.Lookup(probe)
				if len(got) != len(want) {
					t.Fatalf("seed %d attrs %v tid %d: Lookup %v, want %v", seed, attrs, tid, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d attrs %v tid %d: Lookup %v, want %v", seed, attrs, tid, got, want)
					}
				}
			}
			// A value absent from the dictionaries can match no group.
			miss := make(Tuple, len(attrs))
			for i := range miss {
				miss[i] = String("never-inserted-value")
			}
			if got := pli.Lookup(miss); got != nil {
				t.Fatalf("seed %d attrs %v: Lookup of foreign value returned %v", seed, attrs, got)
			}
			if got := pli.Lookup(miss[:0]); got != nil {
				t.Fatalf("seed %d attrs %v: arity-mismatched Lookup returned %v", seed, attrs, got)
			}
		}
	}
}

// TestGetViaRefinesAndValidates covers the cache-aware refinement path:
// GetVia answers from the parent partition when it can, falls back to a
// full build when it cannot, and everything it returns validates fresh —
// including after edits that invalidate the parent.
func TestGetViaRefinesAndValidates(t *testing.T) {
	r := randomMixedRelation(t, 21, 180)
	cache := NewIndexCache()

	// Level-wise walk: singles are full builds, pairs/triples refine.
	cache.GetVia(r, []int{0})
	cache.GetVia(r, []int{1})
	if s := cache.Stats(); s.Misses != 2 || s.Refines != 0 {
		t.Fatalf("after singles: %+v", s)
	}
	p01 := cache.GetVia(r, []int{0, 1})
	if s := cache.Stats(); s.Misses != 2 || s.Refines != 1 {
		t.Fatalf("pair should refine from its prefix: %+v", s)
	}
	samePartition(t, "GetVia{0,1}", p01, BuildPLI(r, []int{0, 1}))
	p012 := cache.GetVia(r, []int{0, 1, 2})
	if s := cache.Stats(); s.Refines != 2 {
		t.Fatalf("triple should refine from the cached pair: %+v", s)
	}
	samePartition(t, "GetVia{0,1,2}", p012, BuildPLI(r, []int{0, 1, 2}))
	if !p012.fresh(r) {
		t.Fatalf("GetVia result is stale on a quiescent relation")
	}
	if got := cache.GetVia(r, []int{0, 1, 2}); got != p012 {
		t.Fatalf("warm GetVia rebuilt the PLI")
	}

	// A pair whose prefix was never cached falls back to a full build.
	cache.GetVia(r, []int{3, 2})
	if s := cache.Stats(); s.Misses != 3 {
		t.Fatalf("orphan pair should build from scratch: %+v", s)
	}

	// Edit column 1: {0,1} and {0,1,2} lag by a journaled cell patch;
	// re-requesting {0,1,2} drains the patch into the cached PLI in
	// place — no rebuild — and the patched result reflects the edit.
	r.Set(3, 1, String("post-edit-value"))
	if p012.fresh(r) {
		t.Fatalf("PLI over edited column claims freshness")
	}
	missesBefore := cache.Stats().Misses
	p012b := cache.GetVia(r, []int{0, 1, 2})
	if p012b != p012 {
		t.Fatalf("GetVia rebuilt a patchable PLI instead of patching it")
	}
	if s := cache.Stats(); s.Misses != missesBefore || s.Patches == 0 {
		t.Fatalf("edit should patch, not rebuild: %+v", s)
	}
	if !p012b.fresh(r) {
		t.Fatalf("post-edit GetVia result does not validate fresh")
	}
	samePartition(t, "post-edit GetVia{0,1,2}", p012b, BuildPLI(r, []int{0, 1, 2}))

	// With the parent re-warmed, the child refines again post-edit.
	cache.GetVia(r, []int{0, 1})
	before := cache.Stats()
	p013 := cache.GetVia(r, []int{0, 1, 3})
	if s := cache.Stats(); s.Refines != before.Refines+1 {
		t.Fatalf("re-warmed parent should serve refinement: %+v -> %+v", before, s)
	}
	if !p013.fresh(r) {
		t.Fatalf("refined PLI does not validate fresh after edits")
	}
	samePartition(t, "post-edit GetVia{0,1,3}", p013, BuildPLI(r, []int{0, 1, 3}))
}

// TestInternNoIdenticalCollision asserts the interning invariant behind
// code-based comparison: within a column populated through Insert (which
// coerces ints into float columns), no two distinct codes hold Identical
// values — Int(9) inserted into a float column lands on the same code as
// Float(9). This is the regression test for the cross-kind ambiguity
// note on Value.Encode.
func TestInternNoIdenticalCollision(t *testing.T) {
	schema := MustSchema("ck",
		Attribute{Name: "F", Kind: KindFloat},
		Attribute{Name: "I", Kind: KindInt},
		Attribute{Name: "S", Kind: KindString},
	)
	r := New(schema)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		var f Value
		switch rng.Intn(3) {
		case 0:
			f = Int(int64(rng.Intn(6))) // coerced to Float by Insert
		case 1:
			f = Float(float64(rng.Intn(6)))
		default:
			f = Float(float64(rng.Intn(6)) + 0.25)
		}
		r.MustInsert(Tuple{f, Int(int64(rng.Intn(6) - 3)), String(fmt.Sprint(rng.Intn(9)))})
	}
	// Int(k) and Float(k) must have landed on one code in the F column.
	a := r.MustInsert(Tuple{Int(3), Int(0), String("x")})
	b := r.MustInsert(Tuple{Float(3), Int(0), String("x")})
	if r.Code(a, 0) != r.Code(b, 0) {
		t.Fatalf("Insert coercion: Int(3) and Float(3) interned as different codes in float column")
	}
	// The raw encodings do differ across kinds — that is the documented
	// ambiguity the coercion neutralizes.
	if string(Int(3).Encode(nil)) == string(Float(3).Encode(nil)) {
		t.Fatalf("Encode no longer distinguishes Int(3) from Float(3); update the interning rationale")
	}
	for attr := 0; attr < schema.Arity(); attr++ {
		d := r.DistinctCodes(attr)
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				vi, vj := r.CodeValue(attr, int32(i)), r.CodeValue(attr, int32(j))
				if vi.Identical(vj) {
					t.Errorf("column %d: distinct codes %d/%d hold Identical values %s/%s",
						attr, i, j, vi, vj)
				}
			}
		}
	}
}

func TestLookupCode(t *testing.T) {
	schema := MustSchema("lk",
		Attribute{Name: "F", Kind: KindFloat},
		Attribute{Name: "I", Kind: KindInt},
	)
	r := New(schema)
	r.MustInsert(Tuple{Float(2), Int(7)})
	r.MustInsert(Tuple{Float(2.5), Null()})

	if code, ok, unique := r.LookupCode(0, Int(2)); !ok || !unique || code != r.Code(0, 0) {
		t.Fatalf("LookupCode(F, Int(2)) = (%d, %v, %v): the Float(2) twin must match", code, ok, unique)
	}
	if _, ok, _ := r.LookupCode(0, Int(3)); ok {
		t.Fatalf("LookupCode(F, Int(3)) found a match in a column without 3")
	}
	if code, ok, unique := r.LookupCode(1, Float(7)); !ok || !unique || code != r.Code(0, 1) {
		t.Fatalf("LookupCode(I, Float(7)) = (%d, %v, %v): the Int(7) twin must match", code, ok, unique)
	}
	if code, ok, unique := r.LookupCode(1, Null()); !ok || !unique || code != r.Code(1, 1) {
		t.Fatalf("LookupCode(I, NULL) = (%d, %v, %v)", code, ok, unique)
	}
	// A mixed column (via unchecked Set) holds Int(7) and Float(7) under
	// distinct codes; the lookup must flag the ambiguity.
	r.Set(1, 1, Float(7))
	if _, ok, unique := r.LookupCode(1, Int(7)); !ok || unique {
		t.Fatalf("LookupCode on a mixed column should report a non-unique match")
	}
}

// TestVersionsAndInvalidation covers the staleness contract: Set
// journals a cell patch on only the touched column (drained into
// cached PLIs in place, never a rebuild), Insert bumps no column
// version (appends are absorbable, not invalidating), a code-identical
// Set journals nothing, and only Truncate-style rollback invalidates
// wholesale.
func TestVersionsAndInvalidation(t *testing.T) {
	r := randomMixedRelation(t, 42, 120)
	cache := NewIndexCache()

	p01 := cache.Get(r, []int{0, 1})
	p23 := cache.Get(r, []int{2, 3})
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("cold cache stats = %+v", s)
	}
	if got := cache.Get(r, []int{0, 1}); got != p01 {
		t.Fatalf("warm lookup rebuilt the PLI")
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("stats after warm lookup = %+v", cache.Stats())
	}

	// Code-identical overwrite: no version change, indexes stay fresh.
	v0, vc := r.Version(), r.ColumnVersion(0)
	r.Set(5, 0, r.Get(5, 0))
	if r.Version() != v0 || r.ColumnVersion(0) != vc {
		t.Fatalf("code-identical Set bumped versions")
	}

	// Edit column 0: only indexes mentioning column 0 lag, by a
	// journaled patch the next lookup drains in place — no rebuild.
	old := r.Get(7, 0)
	pv := r.PatchVersion(0)
	r.Set(7, 0, String("freshly-edited-value"))
	if r.ColumnVersion(0) != vc {
		t.Fatalf("Set hard-invalidated the column instead of journaling a patch")
	}
	if r.PatchVersion(0) != pv+1 {
		t.Fatalf("Set did not journal a cell patch")
	}
	if p01.fresh(r) {
		t.Fatalf("PLI over edited column still claims freshness")
	}
	if !p23.fresh(r) {
		t.Fatalf("PLI over untouched columns was invalidated by an unrelated edit")
	}
	editBefore := cache.Stats()
	p01b := cache.Get(r, []int{0, 1})
	if p01b != p01 {
		t.Fatalf("cache rebuilt a patchable PLI instead of patching it")
	}
	if s := cache.Stats(); s.Misses != editBefore.Misses || s.Patches != editBefore.Patches+1 {
		t.Fatalf("edit should patch, not rebuild: %+v -> %+v", editBefore, s)
	}
	if !p01b.fresh(r) {
		t.Fatalf("patched PLI does not validate fresh")
	}
	if got := cache.Get(r, []int{2, 3}); got != p23 {
		t.Fatalf("cache rebuilt an index over untouched columns")
	}
	// The patched index reflects the edit: the tuple moved groups.
	idx := BuildIndex(r, []int{0, 1})
	keys := idx.Keys()
	for g, key := range keys {
		want := idx.LookupKey(key)
		got := p01b.Group(g)
		if len(got) != len(want) {
			t.Fatalf("rebuilt PLI group %d = %v, want %v", g, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rebuilt PLI group %d = %v, want %v", g, got, want)
			}
		}
	}
	r.Set(7, 0, old)

	// Insert leaves every index length-stale but advanceable: the cache
	// absorbs the appended row into the same PLI instead of rebuilding.
	p23 = cache.Get(r, []int{2, 3})
	before := cache.Stats()
	appendVer := r.AppendVersion()
	r.MustInsert(Tuple{String("s"), Int(1), Float(1.5), String("t")})
	if r.AppendVersion() != appendVer+1 {
		t.Fatalf("Insert did not move the append watermark")
	}
	if p23.fresh(r) {
		t.Fatalf("PLI claims freshness before absorbing the appended row")
	}
	if !p23.advanceableTo(r) {
		t.Fatalf("append-only staleness not advanceable")
	}
	got := cache.Get(r, []int{2, 3})
	if got != p23 {
		t.Fatalf("cache rebuilt an append-stale PLI instead of advancing it")
	}
	if !got.fresh(r) {
		t.Fatalf("advanced PLI does not validate fresh")
	}
	after := cache.Stats()
	if after.Misses != before.Misses || after.Advances != before.Advances+1 {
		t.Fatalf("append should advance, not rebuild: %+v -> %+v", before, after)
	}
	samePartition(t, "post-append advance", got, BuildPLI(r, []int{2, 3}))

	// A Truncate (the append rollback) invalidates wholesale: an index
	// that may have absorbed the dropped rows cannot be trusted if the
	// relation grows back to the same length with different tuples.
	r.Truncate(r.Len() - 1)
	if p23.fresh(r) || p23.advanceableTo(r) {
		t.Fatalf("PLI survived a Truncate")
	}
	if got := cache.Get(r, []int{2, 3}); got == p23 {
		t.Fatalf("cache served a pre-Truncate PLI")
	}
}

// TestIndexCacheConcurrent hammers one cache from many goroutines under
// -race: concurrent readers over a quiescent relation must share
// entries safely.
func TestIndexCacheConcurrent(t *testing.T) {
	r := randomMixedRelation(t, 7, 300)
	cache := NewIndexCache()
	attrSets := [][]int{{0}, {1}, {0, 1}, {2, 3}, {3, 0}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				attrs := attrSets[(w+i)%len(attrSets)]
				pli := cache.Get(r, attrs)
				if !pli.fresh(r) {
					t.Errorf("stale PLI from quiescent cache")
					return
				}
				n := 0
				for g := 0; g < pli.NumGroups(); g++ {
					n += len(pli.Group(g))
				}
				if n != r.Len() {
					t.Errorf("partition covers %d of %d tuples", n, r.Len())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := cache.Stats(); s.Hits+s.Misses != 8*50 {
		t.Fatalf("stats don't add up: %+v", s)
	}
}

// TestSortStableKeepsCodes checks that relation-level sorting permutes
// the code columns together with the tuples.
func TestSortStableKeepsCodes(t *testing.T) {
	r := randomMixedRelation(t, 11, 150)
	r.SortBy([]int{0, 2})
	for tid := 0; tid < r.Len(); tid++ {
		for attr := 0; attr < r.Schema().Arity(); attr++ {
			v := r.Get(tid, attr)
			rep := r.CodeValue(attr, r.Code(tid, attr))
			if string(v.Encode(nil)) != string(rep.Encode(nil)) {
				t.Fatalf("after sort, cell (%d,%d)=%s disagrees with its code's value %s", tid, attr, v, rep)
			}
		}
	}
	pli := BuildPLI(r, []int{0})
	idx := BuildIndex(r, []int{0})
	if pli.NumGroups() != idx.Size() {
		t.Fatalf("post-sort PLI groups = %d, HashIndex = %d", pli.NumGroups(), idx.Size())
	}
}
