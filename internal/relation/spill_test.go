package relation

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestSegmentMappedMatchesHeapDecode asserts the platform loader and
// the portable heap decode agree byte-for-byte on the same segment
// file — the property that makes the mmap fast path a pure
// optimization.
func TestSegmentMappedMatchesHeapDecode(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 4; seed++ {
		r := randomMixedRelation(t, seed, 200+int(seed)*37)
		for _, attrs := range [][]int{{0}, {1, 2}, {3, 0, 1}} {
			p := BuildPLI(r, attrs)
			path := filepath.Join(dir, fmt.Sprintf("seg-%d-%d.seg", seed, attrs[0]))
			p.mu.Lock()
			if _, err := writePLISegment(path, p); err != nil {
				p.mu.Unlock()
				t.Fatalf("write: %v", err)
			}
			p.mu.Unlock()
			mapped, err := openPLISegment(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			heap, err := readPLISegmentHeap(path)
			if err != nil {
				t.Fatalf("heap decode: %v", err)
			}
			if mmapSupported && mapped.seg == nil {
				t.Fatalf("expected a mapped segment on this platform")
			}
			ctx := fmt.Sprintf("seed %d attrs %v", seed, attrs)
			if mapped.n != heap.n {
				t.Fatalf("%s: header mismatch", ctx)
			}
			if len(mapped.tids) != len(heap.tids) || len(mapped.offsets) != len(heap.offsets) ||
				len(mapped.tidGroup) != len(heap.tidGroup) {
				t.Fatalf("%s: section length mismatch", ctx)
			}
			for i := range heap.tids {
				if mapped.tids[i] != heap.tids[i] {
					t.Fatalf("%s: tids[%d] = %d, want %d", ctx, i, mapped.tids[i], heap.tids[i])
				}
			}
			for i := range heap.offsets {
				if mapped.offsets[i] != heap.offsets[i] {
					t.Fatalf("%s: offsets[%d] mismatch", ctx, i)
				}
			}
			for i := range heap.tidGroup {
				if mapped.tidGroup[i] != heap.tidGroup[i] {
					t.Fatalf("%s: tidGroup[%d] mismatch", ctx, i)
				}
			}
		}
	}
}

// TestSpillPageInByteIdentical is the tiered-storage tentpole property:
// on randomized mixed-kind relations (NULLs, mixed-kind columns, novel
// codes), entries demoted to segment files under a starvation budget
// and paged back in are byte-identical — tids/offsets/tidGroup, Group
// reads, Lookup — to counting-sorting the relation from scratch, across
// interleaved rounds of appends and cell patches that the paged-in
// entries absorb through the ordinary catchUp path. The build counter
// stays frozen the whole time: demotion never costs a rebuild.
func TestSpillPageInByteIdentical(t *testing.T) {
	attrSets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {2, 1}, {0, 2, 3}}
	for seed := int64(1); seed <= 6; seed++ {
		r := randomMixedRelation(t, seed, 150+int(seed)*33)
		rng := rand.New(rand.NewSource(seed * 4049))
		store, err := NewSpillStore(filepath.Join(t.TempDir(), "spill"))
		if err != nil {
			t.Fatalf("store: %v", err)
		}
		cache := NewIndexCache()
		cache.SetSpill(store)
		// A 1-byte budget demotes everything except the entry each
		// lookup touches, so every cross-attr round trips through a
		// segment file.
		cache.SetBudget(1)
		for _, attrs := range attrSets {
			cache.Get(r, attrs)
		}
		builds := cache.Stats().Misses
		for round := 0; round < 4; round++ {
			if round > 0 {
				// Mutate between rounds: paged-in (and still-spilled)
				// entries must catch up through patches and advances.
				for k, edits := 0, 2+rng.Intn(4); k < edits; k++ {
					tid, attr := rng.Intn(r.Len()), rng.Intn(4)
					r.Set(tid, attr, randomPatchValue(rng, attr))
				}
				appendRandomRows(t, r, rng, 8+rng.Intn(10))
			}
			for _, attrs := range attrSets {
				ctx := fmt.Sprintf("seed %d round %d attrs %v", seed, round, attrs)
				got := cache.Get(r, attrs)
				samePLI(t, ctx, r, got, BuildPLI(r, attrs))
				if want := got.Lookup([]Value{r.Get(0, attrs[0])}); len(attrs) == 1 && len(want) == 0 {
					t.Fatalf("%s: Lookup through paged-in index found nothing", ctx)
				}
			}
		}
		st := cache.Stats()
		if st.Misses != builds {
			t.Fatalf("seed %d: %d rebuilds after the initial %d builds", seed, st.Misses-builds, builds)
		}
		if st.Spills == 0 || st.Pageins == 0 {
			t.Fatalf("seed %d: expected spill/page-in traffic, got %+v", seed, st)
		}
	}
}

// TestSpillRecordsDropWithFiles asserts lifecycle hygiene: records
// invalidated by a hard column invalidation are discarded with their
// files, and Reset empties the spill directory.
func TestSpillRecordsDropWithFiles(t *testing.T) {
	r := randomMixedRelation(t, 11, 300)
	dir := filepath.Join(t.TempDir(), "spill")
	store, err := NewSpillStore(dir)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	cache := NewIndexCache()
	cache.SetSpill(store)
	cache.SetBudget(1)
	for _, attrs := range [][]int{{0}, {1}, {2}} {
		cache.Get(r, attrs)
	}
	if n := countFiles(t, dir); n == 0 {
		t.Fatalf("expected spill files after demotion")
	}
	// A truncate hard-invalidates every column: the stale records must
	// be discarded (with their files) on the next lookups, not paged in.
	r.Truncate(r.Len() - 10)
	before := cache.Stats()
	for _, attrs := range [][]int{{0}, {1}, {2}} {
		samePLI(t, fmt.Sprintf("attrs %v", attrs), r, cache.Get(r, attrs), BuildPLI(r, attrs))
	}
	after := cache.Stats()
	if after.Pageins != before.Pageins {
		t.Fatalf("stale records were paged in: %+v -> %+v", before, after)
	}
	if after.Misses == before.Misses {
		t.Fatalf("expected rebuilds after hard invalidation")
	}
	cache.Reset()
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("Reset left %d spill files behind", n)
	}
}

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	return len(ents)
}

// TestSpillDemotePageInConcurrent hammers a starvation-budget cache
// with concurrent readers while a writer interleaves exclusive append
// and patch rounds — the session locking discipline — so demotions and
// page-ins constantly race Get/GetVia/GetDelta across goroutines. Run
// under -race via the ordinary test suite and make race-cache.
func TestSpillDemotePageInConcurrent(t *testing.T) {
	r := randomMixedRelation(t, 21, 600)
	store, err := NewSpillStore(filepath.Join(t.TempDir(), "spill"))
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	cache := NewIndexCache()
	cache.SetSpill(store)
	cache.SetBudget(1)
	attrSets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {2, 1}, {0, 2, 3}}
	var sess sync.RWMutex // stand-in for the engine session lock
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randv2.New(randv2.NewPCG(uint64(w), 77))
			for i := 0; i < 60; i++ {
				sess.RLock()
				attrs := attrSets[rng.IntN(len(attrSets))]
				var p *PLI
				switch rng.IntN(3) {
				case 0:
					p = cache.Get(r, attrs)
				case 1:
					p = cache.GetVia(r, attrs)
				default:
					p = cache.GetDelta(r, attrs)
				}
				covered := 0
				for g := 0; g < p.NumGroups(); g++ {
					covered += len(p.Group(g))
				}
				if covered != r.Len() {
					sess.RUnlock()
					t.Errorf("reader %d: covered %d of %d TIDs", w, covered, r.Len())
					return
				}
				sess.RUnlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5150))
		for i := 0; i < 20; i++ {
			sess.Lock()
			if i%2 == 0 {
				appendRandomRows(t, r, rng, 5)
			} else {
				for k := 0; k < 3; k++ {
					tid, attr := rng.Intn(r.Len()), rng.Intn(4)
					r.Set(tid, attr, randomPatchValue(rng, attr))
				}
			}
			sess.Unlock()
		}
	}()
	wg.Wait()
	for _, attrs := range attrSets {
		ctx := fmt.Sprintf("final attrs %v", attrs)
		samePLI(t, ctx, r, cache.Get(r, attrs), BuildPLI(r, attrs))
	}
	if st := cache.Stats(); st.Spills == 0 {
		t.Fatalf("expected demotions under a 1-byte budget, got %+v", st)
	}
}
