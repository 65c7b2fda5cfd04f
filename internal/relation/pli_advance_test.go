package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// appendRandomRows grows a randomMixedRelation-style relation by count
// rows drawn from the same domains PLUS novel values, so appends intern
// fresh codes whose Encode keys interleave arbitrarily with the existing
// ranking — the hard case for incremental codeRanks extension and for
// splicing provisional groups into canonical order at compaction.
func appendRandomRows(t testing.TB, r *Relation, rng *rand.Rand, count int) {
	t.Helper()
	strDomain := []string{"", "a", "ab", "abc", "1", "12", "1:", "12:", ":", "x;", "-3", "edi", "gla"}
	randS := func() Value {
		switch rng.Intn(12) {
		case 0:
			return Null()
		case 1, 2:
			// Novel string: forces a fresh code; the "0"/"zz" prefixes
			// sort both before and after the existing domain.
			if rng.Intn(2) == 0 {
				return String(fmt.Sprintf("0new-%d", rng.Intn(1000)))
			}
			return String(fmt.Sprintf("zz-%d", rng.Intn(1000)))
		default:
			return String(strDomain[rng.Intn(len(strDomain))])
		}
	}
	randI := func() Value {
		switch rng.Intn(12) {
		case 0:
			return Null()
		case 1:
			return Int(int64(100 + rng.Intn(50))) // novel int codes
		default:
			return Int(int64(rng.Intn(7) - 3))
		}
	}
	randF := func() Value {
		switch rng.Intn(12) {
		case 0:
			return Null()
		case 1:
			return Float(float64(rng.Intn(40)) + 0.125)
		default:
			return Float(float64(rng.Intn(5)) + 0.5)
		}
	}
	for i := 0; i < count; i++ {
		r.MustInsert(Tuple{randS(), randI(), randF(), randS()})
	}
}

// samePLI asserts byte-identical partitions including the tid->group
// mapping (samePartition covers groups/member order/group order).
func samePLI(t *testing.T, ctx string, r *Relation, got, want *PLI) {
	t.Helper()
	samePartition(t, ctx, got, want)
	for tid := 0; tid < r.Len(); tid++ {
		if got.GroupOf(tid) != want.GroupOf(tid) {
			t.Fatalf("%s: GroupOf(%d) = %d, want %d", ctx, tid, got.GroupOf(tid), want.GroupOf(tid))
		}
	}
}

// TestAdvanceMatchesBuildPLI is the tentpole property: on randomized
// mixed-kind relations, absorbing appended rows via advance and then
// compacting yields groups, member order, group order, and tid->group
// mapping byte-identical to counting-sorting the grown relation from
// scratch — across several append rounds, with novel codes in the
// delta. Group order is additionally cross-checked against the legacy
// HashIndex sorted-key order, which validates the incremental codeRanks
// merge independently of BuildPLI (both share the rank cache).
func TestAdvanceMatchesBuildPLI(t *testing.T) {
	attrSets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {1, 0}, {2, 1}, {0, 2, 3}, {3, 2, 1, 0}}
	for seed := int64(1); seed <= 8; seed++ {
		r := randomMixedRelation(t, seed, 120+int(seed)*29)
		rng := rand.New(rand.NewSource(seed * 977))
		plis := make([]*PLI, len(attrSets))
		for i, attrs := range attrSets {
			plis[i] = BuildPLI(r, attrs)
		}
		for round := 0; round < 3; round++ {
			appendRandomRows(t, r, rng, 15+rng.Intn(25))
			for i, attrs := range attrSets {
				ctx := fmt.Sprintf("seed %d round %d attrs %v", seed, round, attrs)
				p := plis[i]
				if !p.advanceableTo(r) {
					t.Fatalf("%s: append-only growth not advanceable", ctx)
				}
				if !p.advance(r) {
					t.Fatalf("%s: advance refused", ctx)
				}
				if !p.fresh(r) {
					t.Fatalf("%s: advanced PLI not fresh", ctx)
				}
				// Tolerant reads before compaction: the partition must
				// cover every TID exactly once and agree with GroupOf.
				n := 0
				for g := 0; g < p.NumGroups(); g++ {
					for _, tid := range p.Group(g) {
						if p.GroupOf(tid) != g {
							t.Fatalf("%s: GroupOf(%d) = %d, group iteration says %d", ctx, tid, p.GroupOf(tid), g)
						}
						n++
					}
				}
				if n != r.Len() {
					t.Fatalf("%s: tolerant iteration covers %d of %d tuples", ctx, n, r.Len())
				}
				// Lookup tolerates tails: probing any tuple's own values
				// must find its group.
				probeTID := rng.Intn(r.Len())
				probe := r.Tuple(probeTID).Project(attrs)
				found := false
				for _, tid := range p.Lookup(probe) {
					if tid == probeTID {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: tolerant Lookup lost tuple %d", ctx, probeTID)
				}
				p.compact()
				if p.tailLen() != 0 {
					t.Fatalf("%s: tail survives Compact", ctx)
				}
				samePLI(t, ctx+" (compacted vs rebuild)", r, p, BuildPLI(r, attrs))
				// And after compaction Lookup must agree with a fresh map.
				got := p.Lookup(probe)
				want := BuildPLI(r, attrs).Lookup(probe)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: post-compact Lookup %v, want %v", ctx, got, want)
				}
			}
			// Legacy cross-check: canonical group order == sorted key order.
			for _, attrs := range attrSets[:4] {
				idx := BuildIndex(r, attrs)
				pli := BuildPLI(r, attrs)
				keys := idx.Keys()
				if pli.NumGroups() != len(keys) {
					t.Fatalf("seed %d round %d attrs %v: %d groups vs %d legacy keys",
						seed, round, attrs, pli.NumGroups(), len(keys))
				}
				for g, key := range keys {
					want := idx.LookupKey(key)
					got := pli.Group(g)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d round %d attrs %v group %d: %v vs legacy %v",
							seed, round, attrs, g, got, want)
					}
				}
			}
		}
	}
}

// TestAdvanceThresholdCompacts checks the LSM-style auto-compaction: a
// tail outgrowing an eighth of the index folds in without an explicit
// order-sensitive read.
func TestAdvanceThresholdCompacts(t *testing.T) {
	r := randomMixedRelation(t, 3, 64)
	p := BuildPLI(r, []int{0, 1})
	rng := rand.New(rand.NewSource(17))
	appendRandomRows(t, r, rng, 4)
	if !p.advance(r) {
		t.Fatal("advance refused")
	}
	if p.tailLen() == 0 {
		t.Fatal("small delta should stay in the tail")
	}
	appendRandomRows(t, r, rng, 64) // 68 tail rows vs n=132: way past n/8
	if !p.advance(r) {
		t.Fatal("second advance refused")
	}
	if p.tailLen() != 0 {
		t.Fatalf("threshold did not trigger compaction (tail %d of %d)", p.tailLen(), r.Len())
	}
	samePLI(t, "auto-compacted", r, p, BuildPLI(r, []int{0, 1}))
}

// TestAdvanceRefusesMutations checks the staleness trichotomy: an edit
// to an indexed column, a reorder, or a truncate make the index neither
// fresh nor advanceable, while an edit to an unrelated column leaves it
// fresh.
func TestAdvanceRefusesMutations(t *testing.T) {
	r := randomMixedRelation(t, 5, 100)
	p := BuildPLI(r, []int{0, 1})

	r.Set(2, 3, String("unrelated-column-edit"))
	if !p.fresh(r) || !p.advanceableTo(r) {
		t.Fatal("edit to unindexed column invalidated the PLI")
	}

	r.Set(2, 0, String("indexed-column-edit"))
	if p.advanceableTo(r) {
		t.Fatal("edited indexed column still advanceable")
	}
	if p.advance(r) {
		t.Fatal("advance absorbed a code mutation")
	}

	p2 := BuildPLI(r, []int{0, 1})
	r.SortBy([]int{1})
	if p2.advanceableTo(r) {
		t.Fatal("reorder still advanceable")
	}

	p3 := BuildPLI(r, []int{0, 1})
	r.MustInsert(Tuple{String("x"), Int(1), Float(0.5), String("y")})
	r.Truncate(r.Len() - 1)
	if p3.advanceableTo(r) {
		t.Fatal("truncate still advanceable")
	}
}

// TestGetDeltaKeepsTail covers the cache's two service speeds: GetDelta
// advances without compacting (incremental detection reads tails),
// and a subsequent Get compacts the same entry to canonical order.
func TestGetDeltaKeepsTail(t *testing.T) {
	r := randomMixedRelation(t, 9, 150)
	cache := NewIndexCache()
	p := cache.Get(r, []int{0, 2})
	rng := rand.New(rand.NewSource(31))
	appendRandomRows(t, r, rng, 10)

	got := cache.GetDelta(r, []int{0, 2})
	if got != p {
		t.Fatal("GetDelta rebuilt instead of advancing")
	}
	if got.tailLen() == 0 {
		t.Fatal("GetDelta should leave the delta in the tail")
	}
	if s := cache.Stats(); s.Advances != 1 {
		t.Fatalf("stats after GetDelta advance: %+v", s)
	}

	// Get on the fresh-but-tailed entry compacts copy-on-write: a
	// GetDelta reader may still be iterating p's tail, so p must keep it
	// while the cache slot switches to a canonical compacted copy.
	got2 := cache.Get(r, []int{0, 2})
	if got2 == p {
		t.Fatal("Get compacted a shared tailed entry in place")
	}
	if got2.tailLen() != 0 {
		t.Fatal("Get must hand out canonical (compacted) indexes")
	}
	if p.tailLen() == 0 {
		t.Fatal("copy-on-write compaction mutated the tailed original")
	}
	if s := cache.Stats(); s.Misses != 1 || s.Advances != 1 || s.Hits != 1 {
		t.Fatalf("stats after compacting Get: %+v", s)
	}
	sameFlat(t, "GetDelta→Get compacted copy", got2, BuildPLI(r, []int{0, 2}))
	samePLI(t, "GetDelta→Get", r, got2, BuildPLI(r, []int{0, 2}))

	// The old tailed snapshot still answers reads consistently...
	n := 0
	for g := 0; g < p.NumGroups(); g++ {
		n += len(p.Group(g))
	}
	if n != r.Len() {
		t.Fatalf("tailed snapshot covers %d of %d tuples after the copy", n, r.Len())
	}
	// ...and the compacted copy owns the slot: later lookups are stable.
	if got3 := cache.Get(r, []int{0, 2}); got3 != got2 {
		t.Fatal("compacted copy was not republished in the cache slot")
	}
	if got4 := cache.GetDelta(r, []int{0, 2}); got4 != got2 {
		t.Fatal("GetDelta should reuse the republished compacted entry")
	}
}

// TestCacheCompactCopyOnWriteConcurrent pins the Get/GetDelta
// interleaving the copy-on-write compaction exists for: under a shared
// lock, one reader iterates the delta tail a GetDelta handed out while
// another reader's Get compacts the same entry. Before compaction went
// copy-on-write this raced (the in-place merge rewrote tids/offsets and
// re-sorted the provisional groups under the iterating reader); run
// under -race (make race-cache).
func TestCacheCompactCopyOnWriteConcurrent(t *testing.T) {
	r := randomMixedRelation(t, 21, 400)
	cache := NewIndexCache()
	attrs := []int{0, 2}
	var relMu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: exclusive appends keep re-creating delta tails
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(22))
		for round := 0; round < 25; round++ {
			relMu.Lock()
			appendRandomRows(t, r, rng, 8)
			relMu.Unlock()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 20 {
						return
					}
				default:
				}
				relMu.RLock()
				var pli *PLI
				if (w+i)%2 == 0 {
					pli = cache.GetDelta(r, attrs)
				} else {
					pli = cache.Get(r, attrs)
				}
				n := 0
				for g := 0; g < pli.NumGroups(); g++ {
					n += len(pli.Group(g))
				}
				if n != r.Len() {
					t.Errorf("worker %d: partition covers %d of %d tuples", w, n, r.Len())
					relMu.RUnlock()
					return
				}
				relMu.RUnlock()
			}
		}(w)
	}
	wg.Wait()

	got := cache.Get(r, attrs)
	if !got.fresh(r) || got.tailLen() != 0 {
		t.Fatal("cache entry not canonical after quiescence")
	}
	sameFlat(t, "post-concurrency", got, BuildPLI(r, attrs))
}

// TestFoldSharedKeyMapConcurrent races readers of the key map against
// the folds that share it. Under a shared lock, readers probe Lookup and
// Group on the PLIs GetDelta and Get hand out, while another reader's
// Get folds the same entry into a new PLI over the same map. Between
// read windows a writer holding the exclusive lock appends novel keys
// and Sets cells (emptying groups), so the next lookup writes the map
// through advance and rehome. Run under -race (make race-cache).
func TestFoldSharedKeyMapConcurrent(t *testing.T) {
	r := randomMixedRelation(t, 51, 400)
	cache := NewIndexCache()
	attrs := []int{0, 1}
	var relMu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: novel keys, and edits that empty groups
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(52))
		prev := -1
		for round := 0; round < 25; round++ {
			relMu.Lock()
			appendRandomRows(t, r, rng, 6)
			r.MustInsert(Tuple{String(fmt.Sprintf("0race-%d", round)), Int(int64(round)), Float(0.5), Null()})
			if prev >= 0 {
				r.Set(prev, 0, String("edi")) // the last novel row's group empties
			}
			prev = r.Len() - 1
			for k := 0; k < 3; k++ {
				attr := rng.Intn(2)
				r.Set(rng.Intn(r.Len()), attr, randomPatchValue(rng, attr))
			}
			relMu.Unlock()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(60 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 20 {
						return
					}
				default:
				}
				relMu.RLock()
				var pli *PLI
				if (w+i)%2 == 0 {
					pli = cache.GetDelta(r, attrs)
				} else {
					pli = cache.Get(r, attrs)
				}
				for k := 0; k < 8; k++ {
					tid := rng.Intn(r.Len())
					if !slices.Contains(pli.Lookup(r.Tuple(tid).Project(attrs)), tid) {
						t.Errorf("worker %d: Lookup of TID %d's key misses it", w, tid)
					}
					if !slices.Contains(pli.Group(pli.GroupOf(tid)), tid) {
						t.Errorf("worker %d: TID %d is not in its own group", w, tid)
					}
				}
				relMu.RUnlock()
			}
		}(w)
	}
	wg.Wait()

	got := cache.Get(r, attrs)
	sameFlat(t, "post-concurrency", got, BuildPLI(r, attrs))
	samePLI(t, "post-concurrency", r, got, BuildPLI(r, attrs))
}

// TestGetViaAdvancesParent checks that refinement parents are caught up
// before intersecting: after appends, a child whose own entry is gone
// still refines from the advanced parent instead of rebuilding.
func TestGetViaAdvancesParent(t *testing.T) {
	r := randomMixedRelation(t, 13, 140)
	cache := NewIndexCache()
	parent := cache.GetVia(r, []int{1})
	rng := rand.New(rand.NewSource(41))
	appendRandomRows(t, r, rng, 12)

	before := cache.Stats()
	child := cache.GetVia(r, []int{1, 3})
	after := cache.Stats()
	if after.Misses != before.Misses || after.Refines != before.Refines+1 {
		t.Fatalf("child should refine from the advanced parent: %+v -> %+v", before, after)
	}
	if after.Advances != before.Advances+1 {
		t.Fatalf("parent advance not counted: %+v -> %+v", before, after)
	}
	if !parent.fresh(r) || parent.tailLen() != 0 {
		t.Fatal("GetVia did not catch the parent up canonically")
	}
	samePLI(t, "refined-from-advanced-parent", r, child, BuildPLI(r, []int{1, 3}))
}

// TestCacheBudgetEviction covers size-aware eviction: with a budget in
// place the deepest attribute sets go first (LRU among equals), the
// just-stored entry survives, and the evictions counter moves.
func TestCacheBudgetEviction(t *testing.T) {
	r := randomMixedRelation(t, 7, 400)
	cache := NewIndexCache()
	single := cache.Get(r, []int{0})
	per := single.MemSize()
	// Room for roughly three entries.
	cache.SetBudget(3*per + per/2)

	cache.Get(r, []int{1})
	cache.Get(r, []int{0, 1})
	cache.Get(r, []int{0, 1, 2}) // 4 entries: over budget, deepest others evicted
	if s := cache.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions under budget pressure: %+v", s)
	}
	if n := cache.Len(); n > 3 {
		t.Fatalf("budget keeps %d entries resident", n)
	}
	// The deepest surviving set must be the one just stored.
	if !cache.Get(r, []int{0, 1, 2}).fresh(r) {
		t.Fatal("just-stored entry was evicted")
	}
	// Evicted entries rebuild on demand — correctness is unaffected.
	samePLI(t, "post-eviction rebuild", r, cache.Get(r, []int{0, 1}), BuildPLI(r, []int{0, 1}))

	// Unlimited budget: no further evictions.
	cache.SetBudget(0)
	ev := cache.Stats().Evictions
	cache.Get(r, []int{2, 3})
	cache.Get(r, []int{1, 2, 3})
	if got := cache.Stats().Evictions; got != ev {
		t.Fatalf("evictions moved without a budget: %d -> %d", ev, got)
	}
}

// TestCacheBudgetBindsOnAdvance pins the budget to the advance path:
// the steady-state append flow grows cached entries in place without
// ever storing, and must still trigger eviction once the resident
// estimate outgrows the cap.
func TestCacheBudgetBindsOnAdvance(t *testing.T) {
	r := randomMixedRelation(t, 29, 200)
	cache := NewIndexCache()
	cache.Get(r, []int{0})
	cache.Get(r, []int{1})
	deep := cache.Get(r, []int{2, 3})
	total := cache.Get(r, []int{0}).MemSize() + cache.Get(r, []int{1}).MemSize() + deep.MemSize()
	cache.SetBudget(total + 512) // fits now; won't after the relation triples

	rng := rand.New(rand.NewSource(53))
	appendRandomRows(t, r, rng, 400)
	got := cache.Get(r, []int{0}) // advance in place — no store happens
	if s := cache.Stats(); s.Advances == 0 || s.Misses != 3 {
		t.Fatalf("expected a pure advance: %+v", s)
	}
	if s := cache.Stats(); s.Evictions == 0 {
		t.Fatalf("advance-path growth escaped the budget: %+v", s)
	}
	if !got.fresh(r) {
		t.Fatal("advanced entry not fresh")
	}
}

// TestStoreSweepsOnlyOnRelationChange pins the store-path fix: stores
// for the same relation do not drop sibling entries, while a store for
// a different relation sweeps every entry of the replaced one.
func TestStoreSweepsOnlyOnRelationChange(t *testing.T) {
	r1 := randomMixedRelation(t, 19, 100)
	cache := NewIndexCache()
	cache.Get(r1, []int{0})
	cache.Get(r1, []int{1})
	cache.Get(r1, []int{2, 3})
	if n := cache.Len(); n != 3 {
		t.Fatalf("resident entries = %d, want 3", n)
	}
	// Same-relation store after an edit keeps the untouched siblings.
	r1.Set(0, 0, String("sweep-test-edit"))
	cache.Get(r1, []int{0})
	if n := cache.Len(); n != 3 {
		t.Fatalf("same-relation store swept siblings: %d entries", n)
	}
	// A different relation (the Accept/swap path) sweeps the old one.
	r2 := randomMixedRelation(t, 23, 80)
	cache.Get(r2, []int{0})
	if n := cache.Len(); n != 1 {
		t.Fatalf("relation swap left %d entries, want 1", n)
	}
}
