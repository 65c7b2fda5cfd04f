package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// sameFlat asserts two canonical (untailed) PLIs are byte-identical in
// their flat storage — a stricter check than samePLI, pinning the exact
// tids / offsets / tidGroup layout of a from-scratch build.
func sameFlat(t *testing.T, ctx string, got, want *PLI) {
	t.Helper()
	if len(got.offsets) != len(want.offsets) {
		t.Fatalf("%s: %d offsets, want %d", ctx, len(got.offsets), len(want.offsets))
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", ctx, i, got.offsets[i], want.offsets[i])
		}
	}
	if len(got.tids) != len(want.tids) {
		t.Fatalf("%s: %d tids, want %d", ctx, len(got.tids), len(want.tids))
	}
	for i := range want.tids {
		if got.tids[i] != want.tids[i] {
			t.Fatalf("%s: tids[%d] = %d, want %d", ctx, i, got.tids[i], want.tids[i])
		}
	}
	for i := range want.tidGroup {
		if got.tidGroup[i] != want.tidGroup[i] {
			t.Fatalf("%s: tidGroup[%d] = %d, want %d", ctx, i, got.tidGroup[i], want.tidGroup[i])
		}
	}
}

// TestShardedCacheConcurrentBuildAppend races cache builds against
// appends: a writer appends batches under an exclusive lock (the engine
// session discipline) while readers drive Get / GetVia / GetDelta under
// the shared lock — cold builds, refinements, and in-place advances all
// interleave. Run under -race (make race-cache). Afterwards the entries
// must match from-scratch rebuilds.
func TestShardedCacheConcurrentBuildAppend(t *testing.T) {
	r := randomMixedRelation(t, 77, 3072)
	cache := NewIndexCache()
	attrSets := [][]int{{0}, {1}, {0, 1}, {2, 3}, {0, 1, 2}}

	var relMu sync.RWMutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: exclusive appends
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(79))
		for round := 0; round < 15; round++ {
			relMu.Lock()
			appendRandomRows(t, r, rng, 40)
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
					if i > 10 {
						return
					}
				default:
				}
				attrs := attrSets[(w+i)%len(attrSets)]
				relMu.RLock()
				var pli *PLI
				switch i % 3 {
				case 0:
					pli = cache.Get(r, attrs)
				case 1:
					pli = cache.GetVia(r, attrs)
				default:
					pli = cache.GetDelta(r, attrs)
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

	if s := cache.Stats(); s.Misses == 0 {
		t.Fatalf("stats lost the cold builds: %+v", s)
	}
	for _, attrs := range attrSets {
		got := cache.Get(r, attrs)
		if !got.fresh(r) {
			t.Fatalf("attrs %v: cached entry stale after quiescence", attrs)
		}
		got.compact()
		sameFlat(t, fmt.Sprintf("post-concurrency attrs %v", attrs), got, BuildPLI(r, attrs))
	}
}
