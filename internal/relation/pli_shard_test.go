package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// sameFlat asserts two canonical (untailed) PLIs are byte-identical in
// their flat storage — a stricter check than samePLI, pinning the exact
// tids / offsets layout the "sharded == serial" contract promises.
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

// shardCounts returns the shard fan-outs the equivalence properties
// sweep, per the acceptance criteria: S ∈ {1, 2, 3, 7, NumCPU}.
func shardCounts() []int {
	return []int{1, 2, 3, 7, runtime.NumCPU()}
}

// TestShardedBuildMatchesSerial is the tentpole property: on randomized
// mixed-kind relations large enough to engage the TID-range-parallel
// counting sort, BuildPLISharded produces byte-identical flat storage to
// the serial BuildPLI for every shard count — including a shard count
// the clamp would reject on smaller data (exercised via buildPLI, which
// bypasses effectiveShards, so shards > groups and degenerate widths run
// too).
func TestShardedBuildMatchesSerial(t *testing.T) {
	attrSets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {2, 1}, {0, 2, 3}, {3, 2, 1, 0}}
	for seed := int64(1); seed <= 4; seed++ {
		// Big enough that level 1 (one group spanning the relation)
		// takes the sharded-group counting sort.
		r := randomMixedRelation(t, seed, 3*shardMinRows+int(seed)*257)
		for _, attrs := range attrSets {
			want := BuildPLI(r, attrs)
			for _, s := range shardCounts() {
				got := BuildPLISharded(r, attrs, s)
				sameFlat(t, fmt.Sprintf("seed %d attrs %v S=%d", seed, attrs, s), got, want)
			}
		}
	}
	// Small relations force the group-chunked and serial fallbacks:
	// bypass the size clamp so the parallel plumbing still runs.
	for seed := int64(5); seed <= 8; seed++ {
		r := randomMixedRelation(t, seed, 150+int(seed)*37)
		for _, attrs := range attrSets {
			want := BuildPLI(r, attrs)
			for _, s := range []int{2, 7, 64} {
				got := buildPLI(r, attrs, s)
				sameFlat(t, fmt.Sprintf("small seed %d attrs %v S=%d", seed, attrs, s), got, want)
			}
		}
	}
}

// TestShardedBuildOneGroupColumn pins the degenerate partitions: an
// all-one-group column (every row the same value) and its refinements
// must come out byte-identical under sharding, as must an empty
// relation.
func TestShardedBuildOneGroupColumn(t *testing.T) {
	schema := MustSchema("uni",
		Attribute{Name: "K", Kind: KindString},
		Attribute{Name: "X", Kind: KindInt},
	)
	r := New(schema)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3*shardMinRows; i++ {
		r.MustInsert(Tuple{String("only-value"), Int(int64(rng.Intn(5)))})
	}
	for _, attrs := range [][]int{{0}, {0, 1}, {1, 0}} {
		want := BuildPLI(r, attrs)
		for _, s := range shardCounts() {
			got := BuildPLISharded(r, attrs, s)
			sameFlat(t, fmt.Sprintf("one-group attrs %v S=%d", attrs, s), got, want)
		}
	}
	empty := New(schema)
	for _, s := range shardCounts() {
		got := BuildPLISharded(empty, []int{0, 1}, s)
		if got.NumGroups() != 0 || !got.fresh(empty) {
			t.Fatalf("S=%d: empty-relation build has %d groups", s, got.NumGroups())
		}
	}
}

// TestShardedBuildMultipleShardedGroups pins the pooled-scratch reuse
// across SEVERAL shardable groups in one refinement level — the
// configuration where a cursor left behind in a pooled count array by
// one group would corrupt the counting sort of the next. The first
// attribute splits the relation into a handful of groups all above the
// sharding threshold; the second attribute's codes are deliberately
// skewed so many (group, shard) cells never see a given code — exactly
// the cells a sloppy reset would leave dirty.
func TestShardedBuildMultipleShardedGroups(t *testing.T) {
	schema := MustSchema("multi",
		Attribute{Name: "G", Kind: KindString},
		Attribute{Name: "V", Kind: KindString},
		Attribute{Name: "W", Kind: KindInt},
	)
	for seed := int64(1); seed <= 3; seed++ {
		r := New(schema)
		rng := rand.New(rand.NewSource(seed * 131))
		// 3 big first-level groups, interleaved by TID so every group's
		// refined member range spans the relation. The V code of a row
		// depends on its REGION within its group, rotated per group: a
		// code every group shares, but confined to different member-
		// range slices in each — so for any shard count, plenty of
		// (group, shard) cells have a zero count for a code that a
		// LATER group's same-numbered shard then counts. Those are the
		// cells a stale placement cursor would poison.
		const perGroup = 3 * shardMinRows
		const regions = 6
		for i := 0; i < 3*perGroup; i++ {
			g := i % 3
			j := i / 3 // position within group g's member range
			region := j / (perGroup / regions)
			v := fmt.Sprintf("v%d", (region+2*g)%regions)
			r.MustInsert(Tuple{String(fmt.Sprintf("g%d", g)), String(v), Int(int64(rng.Intn(3)))})
		}
		for _, attrs := range [][]int{{0, 1}, {0, 1, 2}, {1, 0}} {
			want := BuildPLI(r, attrs)
			for _, s := range []int{2, 3, 7} {
				got := buildPLI(r, attrs, s)
				sameFlat(t, fmt.Sprintf("seed %d attrs %v S=%d", seed, attrs, s), got, want)
			}
		}
	}
}

// TestShardedRefineGroupEmptyShards drives the TID-range counting sort
// directly with member counts far below the worker count, so trailing
// shards are empty — the path the size clamp hides from whole-relation
// builds — and checks the refined order and bounds against the serial
// refinement.
func TestShardedRefineGroupEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		distinct := 1 + rng.Intn(6)
		m := 1 + rng.Intn(40)
		codes := make([]int32, m)
		for i := range codes {
			codes[i] = int32(rng.Intn(distinct))
		}
		// An arbitrary permutation rank (codes rank to shuffled order).
		ranks := make([]int32, distinct)
		for i, p := range rng.Perm(distinct) {
			ranks[i] = int32(p)
		}
		cur := make([]int, m)
		for i := range cur {
			cur[i] = i
		}
		bounds := []int32{0, int32(m)}
		wantNext := make([]int, m)
		wantBounds := refineGroups(codes, ranks, make([]int32, distinct), cur, wantNext, bounds,
			0, 1, []int32{0})
		for _, workers := range []int{2, 7, 16, 64} {
			gotNext := make([]int, m)
			gotBounds := shardedRefineGroup(codes, ranks, distinct, cur, gotNext, 0, m, []int32{0}, workers)
			ctx := fmt.Sprintf("trial %d m=%d distinct=%d workers=%d", trial, m, distinct, workers)
			if fmt.Sprint(gotBounds) != fmt.Sprint(wantBounds) {
				t.Fatalf("%s: bounds %v, want %v", ctx, gotBounds, wantBounds)
			}
			if fmt.Sprint(gotNext) != fmt.Sprint(wantNext) {
				t.Fatalf("%s: order %v, want %v", ctx, gotNext, wantNext)
			}
		}
	}
}

// TestIntersectShardedMatchesSerial extends the partition-intersection
// property to the sharded refinement: chained IntersectSharded calls
// stay byte-identical to serial intersect AND to from-scratch builds,
// for every shard count.
func TestIntersectShardedMatchesSerial(t *testing.T) {
	chains := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0}}
	for seed := int64(1); seed <= 3; seed++ {
		r := randomMixedRelation(t, seed, 2*shardMinRows+int(seed)*111)
		for _, chain := range chains {
			for _, s := range shardCounts() {
				p := BuildPLISharded(r, chain[:1], s)
				for k := 2; k <= len(chain); k++ {
					p = p.IntersectSharded(chain[k-1], s)
					want := BuildPLI(r, chain[:k])
					sameFlat(t, fmt.Sprintf("seed %d chain %v level %d S=%d", seed, chain, k, s), p, want)
					if !p.fresh(r) {
						t.Fatalf("seed %d chain %v level %d S=%d: sharded intersection is not fresh",
							seed, chain, k, s)
					}
				}
			}
		}
	}
}

// TestShardedCacheConcurrentBuildAppend is the race-cache companion for
// sharded builds: a writer appends batches under an exclusive lock (the
// engine session discipline) while readers drive Get / GetVia /
// GetDelta on a sharded cache under the shared lock — cold sharded
// builds, sharded refinements, and in-place advances all interleave.
// Run under -race (make race-cache). Afterwards the counters must
// account for every lookup and the entries must match serial rebuilds.
func TestShardedCacheConcurrentBuildAppend(t *testing.T) {
	r := randomMixedRelation(t, 77, 3*shardMinRows)
	cache := NewIndexCache()
	cache.SetShards(4)
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

	s := cache.Stats()
	if s.ShardBuilds == 0 {
		t.Fatalf("no sharded builds counted on a sharded cache: %+v", s)
	}
	if s.Misses == 0 {
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

// TestEffectiveShardsClamp pins the serial fallback: tiny relations and
// degenerate requests never engage the fan-out.
func TestEffectiveShardsClamp(t *testing.T) {
	cases := []struct{ n, s, want int }{
		{0, 8, 1},
		{shardMinRows, 8, 1},
		{2*shardMinRows - 1, 8, 1},
		{2 * shardMinRows, 8, 2},
		{10 * shardMinRows, 4, 4},
		{10 * shardMinRows, 1, 1},
		{10 * shardMinRows, 0, 1},
		{3 * shardMinRows, 64, 3},
	}
	for _, c := range cases {
		if got := effectiveShards(c.n, c.s); got != c.want {
			t.Errorf("effectiveShards(%d, %d) = %d, want %d", c.n, c.s, got, c.want)
		}
	}
}

// TestChunkGroupsCovers sanity-checks the balanced group chunking used
// by the parallel refinement and tidGroup fill: cuts are strictly
// increasing, start at 0, end at the group count, and never exceed the
// worker budget.
func TestChunkGroupsCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		ng := 1 + rng.Intn(50)
		bounds := make([]int32, ng+1)
		for i := 1; i <= ng; i++ {
			bounds[i] = bounds[i-1] + int32(rng.Intn(200))
		}
		if bounds[ng] == 0 {
			continue
		}
		for _, w := range []int{1, 2, 3, 8, 64} {
			cuts := chunkGroups(bounds, w)
			if cuts[0] != 0 || cuts[len(cuts)-1] != ng {
				t.Fatalf("trial %d w=%d: cuts %v do not span [0,%d]", trial, w, cuts, ng)
			}
			if len(cuts)-1 > w {
				t.Fatalf("trial %d w=%d: %d chunks exceed worker budget", trial, w, len(cuts)-1)
			}
			if !sort.IntsAreSorted(cuts) {
				t.Fatalf("trial %d w=%d: cuts %v not sorted", trial, w, cuts)
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i] == cuts[i-1] {
					t.Fatalf("trial %d w=%d: empty chunk in %v", trial, w, cuts)
				}
			}
		}
	}
}
