package cfd

import (
	"fmt"
	"slices"
	"sort"

	"semandaq/internal/fanout"
	"semandaq/internal/relation"
)

// Scatter-gather detection across shard relations.
//
// A dataset is range-partitioned into W shard relations (contiguous TID
// slices, shard w owning global TIDs [offset[w], offset[w]+len_w)).
// Each shard detects locally and reports, per CFD, ALL of its X-groups
// in PLI order — keyed by the group's composite Value.Encode key
// (relation.AppendGroupKey) — with the shard-local violations attached
// to their groups. The coordinator merges the per-shard group streams:
//
//   - PLI group order IS lexicographic key order (relation.BuildPLI), so
//     per-shard streams are key-sorted and a k-way merge by raw key
//     bytes reproduces the single-process group traversal exactly.
//   - A group present in exactly one shard is complete there: its local
//     violations, TID-translated, are the global ones verbatim (all
//     constant-RHS checks are per-tuple, and variable-RHS checks only
//     see the group's members — all local).
//   - A group present in two or more shards (a BOUNDARY group, the one
//     place the range cut crosses a partition class) is merged from
//     per-shard facts, the way Q_V's GROUP BY merges partial aggregates
//     without moving tuples. Constant-RHS checks are per-tuple, so the
//     shards' local constant violations are exact: they are kept and
//     interleaved by (tableau row, RHS attribute, worker), the order
//     detectGroupsPrepared emits them in over the whole membership. A
//     shard's wildcard-RHS verdicts are wrong in both directions (a
//     locally-agreeing group can disagree globally, and a reported
//     conflict carries a truncated TID list); they are dropped and
//     decided from one BoundaryGroup summary per shard (sidesConflict).
//
// The result is byte-identical to single-process Detect over the
// unpartitioned relation (property-tested in scatter_test.go against
// Detect and against a replay of the groups' shipped member rows). A
// boundary group costs the wire its member TIDs plus O(1) values per
// shard. Boundary is not small: on the benchmark's n = 20 000 cust
// relation and five CFDs, 779 of 21 207 groups straddle the cut (3.7 %),
// but they are the six {CC, AC} groups and the hot zips — 79 555
// members, the relation four times over; shipping their rows was 71 ms
// of a 103 ms detect. MergeStats.BoundaryTuples still counts them.

// ShardGroup is one X-group of one CFD on one shard.
type ShardGroup struct {
	// Key is the composite Encode key of the group (raw bytes in a
	// string, NOT printable) — the cross-shard group identity and merge
	// order.
	Key string
	// N is the group's member count on this shard.
	N int
	// Vios are the shard-local violations of this group, in the exact
	// emission order of detectGroupsPrepared, with shard-LOCAL TIDs.
	Vios []Violation
}

// ShardResult is one CFD's group stream on one shard, in PLI (= key)
// order.
type ShardResult struct {
	Groups []ShardGroup
}

// DetectShards runs shard-local detection of every CFD in set over r,
// returning one ShardResult per CFD in set order. It is Detect
// restructured to keep per-group attribution: same PLIs (through cache),
// same prepared fast paths, same emission order within each group.
// workers parallelizes the group scan like DetectParallel (0 = the
// machine's pool).
func DetectShards(r *relation.Relation, set *Set, cache *relation.IndexCache, workers int) ([]ShardResult, error) {
	if cache == nil {
		cache = relation.NewIndexCache()
	}
	out := make([]ShardResult, len(set.cfds))
	for i, c := range set.cfds {
		if !r.Schema().Equal(c.schema) {
			return nil, fmt.Errorf("cfd: detecting %s over relation %s with schema %s",
				c.name, r.Schema().Name(), c.schema.Name())
		}
		pli := cache.Get(r, c.lhs)
		prep := newPrep(r, c)
		chunks := groupChunks(pli.NumGroups(), fanout.Workers(workers))
		out[i] = ShardResult{Groups: slices.Concat(fanout.Map(len(chunks), len(chunks), func(k int) []ShardGroup {
			return scanGroups(r, c, pli, chunks[k][0], chunks[k][1], prep)
		})...)}
	}
	return out, nil
}

// scanGroups walks the PLI groups in [lo, hi), emitting one ShardGroup
// per non-empty group with the group's violations attached
// (detectGroupsPrepared restricted to a single group preserves the
// serial emission order exactly).
func scanGroups(r *relation.Relation, c *CFD, pli *relation.PLI, lo, hi int, prep cfdPrep) []ShardGroup {
	var out []ShardGroup
	var key []byte
	for g := lo; g < hi; g++ {
		tids := pli.Group(g)
		if len(tids) == 0 {
			continue
		}
		key = r.AppendGroupKey(key[:0], tids[0], c.lhs)
		out = append(out, ShardGroup{
			Key:  string(key),
			N:    len(tids),
			Vios: detectGroupsPrepared(r, c, pli, g, g+1, prep),
		})
	}
	return out
}

// BoundaryGroup is one shard's side of one boundary group: the member
// TIDs (global, ascending) and its summary over the query's ValAttrs.
// Rows[0] is the first member's tuple (indexed by attribute position,
// populated on ValAttrs) and Differs lists the value attributes on
// which some member is not Identical to it; a GroupQuery.Rows query
// gets all members' tuples in Rows. Empty TIDs: the shard has no such
// group.
type BoundaryGroup struct {
	TIDs    []int
	Rows    []relation.Tuple
	Differs []int
}

// GroupQuery asks a shard for its side of the groups, in the partition
// over PartAttrs, that have the given composite keys (raw Encode bytes;
// base64 in the JSON the shard protocol sends it as).
type GroupQuery struct {
	PartAttrs []int    `json:"part_attrs"`
	ValAttrs  []int    `json:"val_attrs"`
	Keys      [][]byte `json:"keys"`
	// Rows ships every member's values, not just the first one's: the DC
	// pair replay needs them, the CFD merge works from the summary.
	Rows bool `json:"rows,omitempty"`
}

// BoundaryFetcher retrieves the shards' sides of CFD cfdIdx's boundary
// groups: result[w][k] for worker w, key k, summarized over (at least)
// the CFD's LHS and RHS attributes; empty TIDs where the worker has no
// such group — tolerated, since a racing append can shift membership
// between the detect and fetch phases.
type BoundaryFetcher func(cfdIdx int, keys []string) ([][]BoundaryGroup, error)

// BatchFetcher is BoundaryFetcher for all CFDs in one round: queries[ci]
// holds CFD ci's boundary keys, result[w][ci][k] is worker w's side of
// queries[ci].Keys[k], and result[w] is nil for a worker with nothing
// to contribute.
type BatchFetcher func(queries []GroupQuery) ([][][]BoundaryGroup, error)

// MergeStats quantifies the residual pass: how much of the partition
// straddled the range cuts.
type MergeStats struct {
	// Groups counts distinct (CFD, group) pairs across the cluster;
	// BoundaryGroups the subset present on 2+ shards.
	Groups         int `json:"groups"`
	BoundaryGroups int `json:"boundary_groups"`
	// BoundaryTuples counts the members of those groups.
	BoundaryTuples int `json:"boundary_tuples"`
}

// BoundaryFraction is BoundaryGroups/Groups — the residual fraction the
// load reports commit.
func (m MergeStats) BoundaryFraction() float64 {
	if m.Groups == 0 {
		return 0
	}
	return float64(m.BoundaryGroups) / float64(m.Groups)
}

// CollectGroups is the worker-side half of the boundary fetch. Each key
// is decoded into its values and probed in the partition's lookup map,
// so the cost follows the requested groups, not the partition. Keys
// with no matching group return empty entries; a key that is not
// q.PartAttrs' worth of encoded values is an error.
func CollectGroups(r *relation.Relation, cache *relation.IndexCache, q GroupQuery) ([]BoundaryGroup, error) {
	out := make([]BoundaryGroup, len(q.Keys))
	if len(q.Keys) == 0 {
		return out, nil
	}
	if cache == nil {
		cache = relation.NewIndexCache()
	}
	pli := cache.Get(r, q.PartAttrs)
	for i, k := range q.Keys {
		vals, err := relation.DecodeTuple(k, len(q.PartAttrs))
		if err != nil {
			return nil, fmt.Errorf("cfd: boundary key %d: %w", i, err)
		}
		tids := pli.Lookup(vals)
		if len(tids) == 0 {
			continue
		}
		// Lookup may alias index storage, and callers translate in place.
		bg := BoundaryGroup{TIDs: slices.Clone(tids)}
		for _, a := range q.ValAttrs {
			if groupVarConflict(r, r.ColumnCodes(a), tids, a) {
				bg.Differs = append(bg.Differs, a)
			}
		}
		if !q.Rows {
			tids = tids[:1]
		}
		for _, tid := range tids {
			row := make(relation.Tuple, r.Schema().Arity())
			for _, a := range q.ValAttrs {
				row[a] = r.Get(tid, a)
			}
			bg.Rows = append(bg.Rows, row)
		}
		out[i] = bg
	}
	return out, nil
}

// LHSRHSAttrs returns the sorted union of a CFD's X and Y attribute
// positions — the value attributes a boundary summary must cover.
func (c *CFD) LHSRHSAttrs() []int {
	out := append(append([]int(nil), c.lhs...), c.rhs...)
	sort.Ints(out)
	return out
}

// MergeShards merges per-shard detection results into the global
// violation list, byte-identical to single-process Detect over the
// union relation. offsets[w] is worker w's global TID offset (workers
// in ascending TID-range order); shards[w] is worker w's DetectShards
// output. fetch is called at most once per CFD (with all of that CFD's
// boundary keys) and never when no group straddles a cut.
func MergeShards(set *Set, offsets []int, shards [][]ShardResult, fetch BoundaryFetcher) ([]Violation, MergeStats, error) {
	return MergeShardsBatch(set, offsets, shards, func(queries []GroupQuery) ([][][]BoundaryGroup, error) {
		sides := make([][][]BoundaryGroup, len(shards))
		for w := range sides {
			sides[w] = make([][]BoundaryGroup, len(queries))
		}
		for ci, q := range queries {
			if len(q.Keys) == 0 {
				continue
			}
			if fetch == nil {
				return nil, fmt.Errorf("%d boundary groups for %s but no fetcher configured", len(q.Keys), set.cfds[ci].name)
			}
			keys := make([]string, len(q.Keys))
			for k, raw := range q.Keys {
				keys[k] = string(raw)
			}
			fetched, err := fetch(ci, keys)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", set.cfds[ci].name, err)
			}
			if len(fetched) != len(shards) {
				return nil, fmt.Errorf("%s: fetch returned %d workers, want %d", set.cfds[ci].name, len(fetched), len(shards))
			}
			for w := range sides {
				sides[w][ci] = fetched[w]
			}
		}
		return sides, nil
	})
}

// MergeShardsBatch is MergeShards with every CFD's boundary groups
// fetched in one call, made only when some group straddles a cut — one
// round trip per worker however many CFDs the set has.
func MergeShardsBatch(set *Set, offsets []int, shards [][]ShardResult, fetch BatchFetcher) ([]Violation, MergeStats, error) {
	var stats MergeStats
	W := len(shards)
	for w, sr := range shards {
		if len(sr) != len(set.cfds) {
			return nil, stats, fmt.Errorf("cfd: shard %d returned %d CFD results, set has %d", w, len(sr), len(set.cfds))
		}
	}
	// Pass 1: k-way merge every CFD's key-sorted streams into the global
	// group order. Per global group, at[ci] gets W stream indexes (-1
	// where the worker does not hold it) and boundary[ci] the group's
	// index in queries[ci].Keys (-1 for a sole-owner group).
	queries := make([]GroupQuery, len(set.cfds))
	at := make([][]int32, len(set.cfds))
	boundary := make([][]int32, len(set.cfds))
	pos := make([]int, W)
	for ci, c := range set.cfds {
		queries[ci] = GroupQuery{PartAttrs: c.lhs, ValAttrs: c.LHSRHSAttrs()}
		clear(pos)
		for {
			minKey, found := "", false
			for w := range shards {
				if g := shards[w][ci].Groups; pos[w] < len(g) && (!found || g[pos[w]].Key < minKey) {
					minKey, found = g[pos[w]].Key, true
				}
			}
			if !found {
				break
			}
			holders := 0
			for w := range shards {
				idx := int32(-1)
				if g := shards[w][ci].Groups; pos[w] < len(g) && g[pos[w]].Key == minKey {
					idx = int32(pos[w])
					pos[w]++
					holders++
				}
				at[ci] = append(at[ci], idx)
			}
			stats.Groups++
			b := int32(-1)
			if holders > 1 {
				b = int32(len(queries[ci].Keys))
				queries[ci].Keys = append(queries[ci].Keys, []byte(minKey))
				stats.BoundaryGroups++
			}
			boundary[ci] = append(boundary[ci], b)
		}
	}

	sides := make([][][]BoundaryGroup, W)
	if stats.BoundaryGroups > 0 {
		var err error
		if sides, err = fetch(queries); err != nil {
			return nil, stats, fmt.Errorf("cfd: fetching boundary groups: %w", err)
		}
		if len(sides) != W {
			return nil, stats, fmt.Errorf("cfd: boundary fetch returned %d workers, want %d", len(sides), W)
		}
		for w, s := range sides {
			if s == nil {
				continue
			}
			for ci, q := range queries {
				if len(s) != len(queries) || len(s[ci]) != len(q.Keys) {
					return nil, stats, fmt.Errorf("cfd: boundary fetch: worker %d answered the wrong number of CFDs or keys", w)
				}
				need := q.ValAttrs[len(q.ValAttrs)-1] + 1 // a summary must reach the CFD's last attribute
				for _, g := range s[ci] {
					if len(g.TIDs) > 0 && (len(g.Rows) == 0 || len(g.Rows[0]) < need) {
						return nil, stats, fmt.Errorf("cfd: boundary group of %s: worker %d's summary does not cover attribute %d", set.cfds[ci].name, w, need-1)
					}
				}
			}
		}
	}

	// Pass 2: emit in global group order.
	var out []Violation
	local := make([]*ShardGroup, W)
	group := make([]BoundaryGroup, W)
	for ci, c := range set.cfds {
		for u, b := range boundary[ci] {
			for w, idx := range at[ci][u*W : (u+1)*W] {
				local[w], group[w] = nil, BoundaryGroup{}
				if idx >= 0 {
					local[w] = &shards[w][ci].Groups[idx]
				}
				if b >= 0 && sides[w] != nil {
					group[w] = sides[w][ci][b]
				}
			}
			if b >= 0 {
				var n int
				out, n = mergeBoundary(out, c, offsets, local, group)
				stats.BoundaryTuples += n
				continue
			}
			for w, g := range local {
				if g != nil {
					out = appendTranslated(out, c, g.Vios, offsets[w])
				}
			}
		}
	}
	return out, stats, nil
}

// appendTranslated appends vs with every TID shifted by off — the
// local→global translation of a shard's violations.
func appendTranslated(dst []Violation, c *CFD, vs []Violation, off int) []Violation {
	for _, v := range vs {
		tids := make([]int, len(v.TIDs))
		for i, tid := range v.TIDs {
			tids[i] = tid + off
		}
		dst = append(dst, Violation{CFD: c, Row: v.Row, Kind: v.Kind, Attr: v.Attr, TIDs: tids})
	}
	return dst
}

// mergeBoundary emits one boundary group of c in detectGroupsPrepared's
// order — tableau rows outer, RHS attributes inner — and returns its
// member count. local[w] is worker w's phase-1 group (nil where it
// holds none), whose violations are already in that order, so a cursor
// per worker walks them: constant violations are re-emitted worker by
// worker (ascending global TIDs); the shards' wildcard verdicts are
// skipped for the verdict over sides, whose concatenated TIDs are the
// global membership.
func mergeBoundary(dst []Violation, c *CFD, offsets []int, local []*ShardGroup, sides []BoundaryGroup) ([]Violation, int) {
	total, w0 := 0, -1
	for w, g := range sides {
		if len(g.TIDs) > 0 && w0 < 0 {
			w0 = w
		}
		total += len(g.TIDs)
	}
	nl := len(c.lhs)
	cur := make([]int, len(local))
	for rowIdx, row := range c.tableau {
		matched := total >= 2 && row[:nl].Matches(sides[w0].Rows[0], c.lhs)
		for j, attr := range c.rhs {
			isConst := row[nl+j].IsConst()
			for w, g := range local {
				if g == nil {
					continue
				}
				from := cur[w]
				for cur[w] < len(g.Vios) && g.Vios[cur[w]].Row == rowIdx && g.Vios[cur[w]].Attr == attr {
					cur[w]++
				}
				if isConst {
					dst = appendTranslated(dst, c, g.Vios[from:cur[w]], offsets[w])
				}
			}
			if isConst || !matched || !sidesConflict(sides, w0, attr) {
				continue
			}
			group := make([]int, 0, total)
			for _, g := range sides {
				group = append(group, g.TIDs...)
			}
			dst = append(dst, Violation{CFD: c, Row: rowIdx, Kind: VarViolation, Attr: attr, TIDs: group})
		}
	}
	return dst, total
}

// sidesConflict is groupVarConflict over summaries. Some member is not
// Identical to the global first member (shard w0's) iff some shard's
// members are not all Identical to its own first, or its first is not
// Identical to the global one: Identical is symmetric and transitive
// (NaN is Identical to nothing, itself included; NULL to NULL) as long
// as an integer compared with a float is exact in float64, which
// Equal's numeric comparison presumes.
func sidesConflict(sides []BoundaryGroup, w0, attr int) bool {
	first := sides[w0].Rows[0][attr]
	for w := w0; w < len(sides); w++ {
		g := sides[w]
		if len(g.TIDs) > 0 && (slices.Contains(g.Differs, attr) || (w != w0 && !g.Rows[0][attr].Identical(first))) {
			return true
		}
	}
	return false
}
