package relation

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// Sharded PLI construction: the counting-sort refinement of BuildPLI /
// intersect, parallelized across a worker pool without changing a single
// output byte. Two complementary splits cover the shapes a refinement
// level can take:
//
//   - TID-range shards: a level with few groups (the first level of a
//     cold build is ONE group spanning the whole relation) splits each
//     large group's member range into fixed-width contiguous shards.
//     Every shard counts its codes privately, a serial pass turns the
//     per-(code, shard) counts into placement cursors in (code-rank,
//     shard) order, and the shards then place their members into
//     disjoint slots of the output concurrently. Because shard order is
//     ascending-TID order, the placement is exactly the serial stable
//     counting sort.
//
//   - Group chunks: a level with many groups splits the group range
//     into contiguous chunks balanced by TID count; each worker runs
//     the ordinary serial refinement over its chunk, writing a disjoint
//     region of the output. Concatenating the per-chunk bounds in chunk
//     order reproduces the serial bounds verbatim.
//
// Both splits preserve the invariant the rest of the system leans on:
// sharded output is byte-identical to the serial build (tids, offsets,
// tidGroup — property-tested), so S is purely a throughput knob.

// shardMinRows is the minimum number of rows that justifies one more
// shard: below it, the per-shard fixed costs (a goroutine, a count
// array over the column's code space, a touched-code sort) outweigh the
// parallel counting work. effectiveShards clamps requested shard counts
// with it, so tiny relations always take the serial path.
const shardMinRows = 1024

// effectiveShards bounds a requested shard count by what n rows can
// usefully feed: at least shardMinRows rows per shard, at least one
// shard. Callers treat a result of 1 as "use the serial path".
func effectiveShards(n, shards int) int {
	if shards <= 1 {
		return 1
	}
	if m := n / shardMinRows; shards > m {
		shards = m
	}
	if shards < 1 {
		return 1
	}
	return shards
}

// BuildPLISharded is BuildPLI with the counting-sort passes fanned out
// over up to `shards` workers. The output is byte-identical to
// BuildPLI(r, attrs) — groups, member order, group order, and the
// tid->group mapping all match — and shards <= 1 (or a relation too
// small to feed the requested fan-out) IS the serial BuildPLI path.
func BuildPLISharded(r *Relation, attrs []int, shards int) *PLI {
	return buildPLI(r, attrs, effectiveShards(r.Len(), shards))
}

// IntersectSharded is intersect with the single refinement pass fanned
// out over up to `shards` workers; byte-identical to intersect(y), and
// serial for shards <= 1.
func (p *PLI) IntersectSharded(y, shards int) *PLI {
	p.compact()
	r := p.rel
	out := &PLI{
		rel:       r,
		attrs:     append(slices.Clone(p.attrs), y),
		colVers:   append(slices.Clone(p.colVers), r.ColumnVersion(y)),
		patchVers: append(slices.Clone(p.patchVers), r.PatchVersion(y)),
	}
	if p.n == 0 {
		out.pliBase = newPLIBase(nil, []int32{0}, 1)
		return out
	}
	s := effectiveShards(p.n, shards)
	// refinement only reads the parent's TID storage, so it is shared
	// directly instead of copied (see intersect).
	next := make([]int, p.n)
	var offsets []int32
	if s > 1 {
		offsets = parallelRefineBy(r, y, p.tids, next, p.offsets, s)
	} else {
		offsets = refineBy(r, y, p.tids, next, p.offsets)
	}
	out.pliBase = newPLIBase(next, offsets, s)
	return out
}

// buildPLI is the shared BuildPLI body: shards == 1 runs the historical
// serial refinement, shards > 1 the parallel one. Exposed to in-package
// tests so the sharded machinery can be exercised with shard counts the
// effectiveShards clamp would reject (empty shards, shards > n).
func buildPLI(r *Relation, attrs []int, shards int) *PLI {
	p := &PLI{
		rel:       r,
		attrs:     slices.Clone(attrs),
		colVers:   make([]uint64, len(attrs)),
		patchVers: make([]uint64, len(attrs)),
	}
	for i, a := range attrs {
		p.colVers[i] = r.ColumnVersion(a)
		p.patchVers[i] = r.PatchVersion(a)
	}
	n := r.Len()
	if n == 0 {
		p.pliBase = newPLIBase(nil, []int32{0}, 1)
		return p
	}

	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	next := make([]int, n)
	bounds := []int32{0, int32(n)}

	for _, a := range attrs {
		if shards > 1 {
			bounds = parallelRefineBy(r, a, cur, next, bounds, shards)
		} else {
			bounds = refineBy(r, a, cur, next, bounds)
		}
		cur, next = next, cur
	}
	p.pliBase = newPLIBase(cur, bounds, shards)
	return p
}

// parallelRefineBy is refineBy fanned out over `workers` goroutines,
// byte-identical by construction. Levels with many groups are split into
// contiguous group chunks balanced by TID count (each worker refines its
// chunk serially into a disjoint output region); levels with few groups
// — above all the single whole-relation group of a cold build's first
// level — shard each large group's member range by TID instead
// (shardedRefineGroup), and refine small groups serially in place.
func parallelRefineBy(r *Relation, a int, cur, next []int, bounds []int32, workers int) []int32 {
	codes := r.ColumnCodes(a)
	ranks := r.codeRanks(a) // materialized once, before the fan-out
	distinct := r.DistinctCodes(a)
	ng := len(bounds) - 1

	if ng >= 2*workers {
		cuts := chunkGroups(bounds, workers)
		if len(cuts)-1 >= 2 {
			parts := make([][]int32, len(cuts)-1)
			var wg sync.WaitGroup
			for c := 0; c+1 < len(cuts); c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					count := make([]int32, distinct)
					parts[c] = refineGroups(codes, ranks, count, cur, next, bounds,
						cuts[c], cuts[c+1], make([]int32, 0, cuts[c+1]-cuts[c]+1))
				}(c)
			}
			wg.Wait()
			total := 1
			for _, part := range parts {
				total += len(part)
			}
			newBounds := make([]int32, 1, total)
			for _, part := range parts {
				newBounds = append(newBounds, part...)
			}
			return newBounds
		}
	}

	// Few groups: walk them in order, TID-range-sharding the big ones.
	// The per-worker count arrays and the union bitmap are pooled
	// across groups (zeroed selectively after each use), so a level
	// over a high-cardinality column costs workers+1 count arrays, not
	// workers per group.
	count := make([]int32, distinct)
	scratch := newShardScratch(workers)
	newBounds := make([]int32, 1, len(bounds))
	for gi := 0; gi < ng; gi++ {
		lo, hi := int(bounds[gi]), int(bounds[gi+1])
		if hi-lo >= 2*shardMinRows && workers > 1 {
			newBounds = shardedRefineGroupPooled(codes, ranks, distinct, cur, next, lo, hi, newBounds, workers, scratch)
		} else {
			newBounds = refineGroups(codes, ranks, count, cur, next, bounds, gi, gi+1, newBounds)
		}
	}
	return newBounds
}

// shardScratch pools the per-worker state of shardedRefineGroup across
// the groups of one refinement level: counts[s] is worker s's counting
// array, seen the touched-code union bitmap. Every used entry is zeroed
// again before the group finishes, so reuse needs no clearing pass.
type shardScratch struct {
	counts [][]int32
	seen   []bool
}

func newShardScratch(workers int) *shardScratch {
	return &shardScratch{counts: make([][]int32, workers)}
}

// shardedRefineGroup counting-sorts one group's members (cur[lo:hi])
// into next by TID-range shards: fixed-width contiguous member slices
// count their codes privately in parallel, a serial pass lays the
// (code-rank, shard)-ordered placement cursors, and the shards place
// concurrently into disjoint slots. Appends the refined sub-group end
// positions to newBounds exactly like the serial refinement. Shards past
// the member count stay empty and cost nothing.
func shardedRefineGroup(codes, ranks []int32, distinct int, cur, next []int, lo, hi int, newBounds []int32, workers int) []int32 {
	return shardedRefineGroupPooled(codes, ranks, distinct, cur, next, lo, hi, newBounds, workers,
		newShardScratch(workers))
}

// shardedRefineGroupPooled is shardedRefineGroup on pooled scratch: the
// per-worker count arrays and union bitmap come from (and are returned
// zeroed to) scratch, so the fan-out's allocations amortize across a
// whole refinement level.
func shardedRefineGroupPooled(codes, ranks []int32, distinct int, cur, next []int, lo, hi int, newBounds []int32, workers int, scratch *shardScratch) []int32 {
	m := hi - lo
	width := (m + workers - 1) / workers
	touched := make([][]int32, workers)
	shardLo := func(s int) int { return lo + s*width }
	shardHi := func(s int) int { return min(lo+(s+1)*width, hi) }
	active := func(s int) bool { return shardLo(s) < shardHi(s) }

	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		if !active(s) {
			continue // empty shard
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if scratch.counts[s] == nil {
				scratch.counts[s] = make([]int32, distinct)
			}
			count := scratch.counts[s]
			var tch []int32
			for _, tid := range cur[shardLo(s):shardHi(s)] {
				c := codes[tid]
				if count[c] == 0 {
					tch = append(tch, c)
				}
				count[c]++
			}
			touched[s] = tch
		}(s)
	}
	wg.Wait()

	// Union the per-shard touched codes and order them by rank — the
	// sub-group emission order of the serial counting sort.
	if scratch.seen == nil {
		scratch.seen = make([]bool, distinct)
	}
	seen := scratch.seen
	var all []int32
	for _, tch := range touched {
		for _, c := range tch {
			if !seen[c] {
				seen[c] = true
				all = append(all, c)
			}
		}
	}
	slices.SortFunc(all, func(a, b int32) int { return cmp.Compare(ranks[a], ranks[b]) })
	for _, c := range all {
		seen[c] = false
	}

	// Turn the count matrix into placement cursors: code-major, shard-
	// minor — shard order is ascending-TID order, so placement below is
	// the serial stable sort, just executed by S writers at once. A
	// (shard, code) cell with a zero count MUST stay zero: its cursor
	// would never be read (the shard has no member with that code) but
	// it is also not in the shard's touched list, so the end-of-group
	// zeroing would miss it and the stale cursor would poison the next
	// group sharing this pooled array (regression-tested in
	// TestShardedBuildMultipleShardedGroups).
	pos := int32(lo)
	for _, c := range all {
		for s := 0; s < workers; s++ {
			if touched[s] == nil {
				continue
			}
			cnt := scratch.counts[s][c]
			if cnt == 0 {
				continue
			}
			scratch.counts[s][c] = pos
			pos += cnt
		}
		newBounds = append(newBounds, pos)
	}

	for s := 0; s < workers; s++ {
		if !active(s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			count := scratch.counts[s]
			for _, tid := range cur[shardLo(s):shardHi(s)] {
				c := codes[tid]
				next[count[c]] = tid
				count[c]++
			}
			// Leave the pooled array zeroed for the next group.
			for _, c := range touched[s] {
				count[c] = 0
			}
		}(s)
	}
	wg.Wait()
	return newBounds
}

// chunkGroups splits the group range [0, len(bounds)-1) into at most
// `workers` contiguous chunks with roughly equal TID counts, cutting
// only at group boundaries: chunk c ends at the first boundary at or
// past (c+1)/workers of the TID span. Returns the cut group indexes,
// first 0 and last the group count; heavily skewed partitions may yield
// fewer (down to one) chunks.
func chunkGroups(bounds []int32, workers int) []int {
	ng := len(bounds) - 1
	n := int64(bounds[ng])
	cuts := make([]int, 1, workers+1)
	for c := 1; c < workers; c++ {
		target := int32(n * int64(c) / int64(workers))
		g := sort.Search(ng, func(i int) bool { return bounds[i+1] >= target })
		cut := g + 1
		if cut <= cuts[len(cuts)-1] {
			continue
		}
		if cut >= ng {
			break
		}
		cuts = append(cuts, cut)
	}
	return append(cuts, ng)
}
