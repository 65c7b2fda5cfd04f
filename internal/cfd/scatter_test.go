package cfd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"semandaq/internal/relation"
)

// splitRelation range-partitions r into w contiguous shard relations
// (the coordinator's registration-time partitioning: sizes n/w with the
// remainder spread over the leading shards), reproducing every tuple
// bit-exactly via InsertUnchecked. Returns the shards and their global
// TID offsets.
func splitRelation(r *relation.Relation, w int) ([]*relation.Relation, []int) {
	n := r.Len()
	size, rem := n/w, n%w
	shards := make([]*relation.Relation, w)
	offsets := make([]int, w)
	tid := 0
	for i := 0; i < w; i++ {
		hi := tid + size
		if i < rem {
			hi++
		}
		offsets[i] = tid
		s := relation.New(r.Schema())
		for ; tid < hi; tid++ {
			s.InsertUnchecked(r.Tuple(tid).Clone())
		}
		shards[i] = s
	}
	return shards, offsets
}

// localFetcher is the in-process BoundaryFetcher: it asks CollectGroups
// for the shards' sides of the boundary groups — summaries, plus member
// rows when rows is set — translating shard-local TIDs to global ones,
// exactly what the worker /v1/shard/groups endpoint plus the
// coordinator client do over HTTP.
func localFetcher(set *Set, shards []*relation.Relation, offsets []int, caches []*relation.IndexCache, rows bool) BoundaryFetcher {
	return func(cfdIdx int, keys []string) ([][]BoundaryGroup, error) {
		c := set.All()[cfdIdx]
		q := GroupQuery{PartAttrs: c.LHS(), ValAttrs: c.LHSRHSAttrs(), Rows: rows}
		for _, k := range keys {
			q.Keys = append(q.Keys, []byte(k))
		}
		out := make([][]BoundaryGroup, len(shards))
		for w, s := range shards {
			groups, err := CollectGroups(s, caches[w], q)
			if err != nil {
				return nil, err
			}
			for i := range groups {
				for m := range groups[i].TIDs {
					groups[i].TIDs[m] += offsets[w]
				}
			}
			out[w] = groups
		}
		return out, nil
	}
}

// replayMergeShards is the reference merge the summaries replaced (it
// was MergeShards until PR 19): the same k-way key merge, but a boundary
// group's local violations are discarded wholesale and the group is
// re-detected at the coordinator from its members' shipped rows.
func replayMergeShards(set *Set, offsets []int, shards [][]ShardResult, fetch BoundaryFetcher) ([]Violation, MergeStats, error) {
	var out []Violation
	var stats MergeStats
	W := len(shards)
	for ci, c := range set.cfds {
		type mergeUnit struct {
			soleWorker int // -1 for boundary groups
			soleGroup  *ShardGroup
			boundary   int // index into boundaryKeys
		}
		var units []mergeUnit
		var boundaryKeys []string
		pos := make([]int, W)
		for {
			minKey, found := "", false
			for w := 0; w < W; w++ {
				if g := shards[w][ci].Groups; pos[w] < len(g) {
					if k := g[pos[w]].Key; !found || k < minKey {
						minKey, found = k, true
					}
				}
			}
			if !found {
				break
			}
			var holders []int
			for w := 0; w < W; w++ {
				if g := shards[w][ci].Groups; pos[w] < len(g) && g[pos[w]].Key == minKey {
					holders = append(holders, w)
				}
			}
			stats.Groups++
			if len(holders) == 1 {
				w := holders[0]
				units = append(units, mergeUnit{soleWorker: w, soleGroup: &shards[w][ci].Groups[pos[w]]})
			} else {
				units = append(units, mergeUnit{soleWorker: -1, boundary: len(boundaryKeys)})
				boundaryKeys = append(boundaryKeys, minKey)
				stats.BoundaryGroups++
			}
			for _, w := range holders {
				pos[w]++
			}
		}
		var members [][]BoundaryGroup
		if len(boundaryKeys) > 0 {
			var err error
			if members, err = fetch(ci, boundaryKeys); err != nil {
				return nil, stats, err
			}
		}
		for _, u := range units {
			if u.soleWorker >= 0 {
				out = appendTranslated(out, c, u.soleGroup.Vios, offsets[u.soleWorker])
				continue
			}
			var tids []int
			var rows []relation.Tuple
			for w := 0; w < W; w++ {
				bg := members[w][u.boundary]
				if len(bg.TIDs) != len(bg.Rows) {
					return nil, stats, fmt.Errorf("%d TIDs but %d rows from worker %d", len(bg.TIDs), len(bg.Rows), w)
				}
				tids = append(tids, bg.TIDs...)
				rows = append(rows, bg.Rows...)
			}
			stats.BoundaryTuples += len(tids)
			out = append(out, replayGroup(c, tids, rows)...)
		}
	}
	return out, stats, nil
}

// replayGroup re-runs the single-group detection of detectGroupsPrepared
// on a shipped membership, value-exactly: rows outer, RHS attributes
// inner, constant violations per member in TID order, variable
// violations once per conflicting group.
func replayGroup(c *CFD, tids []int, rows []relation.Tuple) []Violation {
	if len(tids) == 0 {
		return nil
	}
	var out []Violation
	nl := len(c.lhs)
	rep := rows[0]
	for rowIdx, row := range c.tableau {
		if !row[:nl].Matches(rep, c.lhs) {
			continue
		}
		for j, attr := range c.rhs {
			p := row[nl+j]
			if p.IsConst() {
				for m, tid := range tids {
					if !p.Matches(rows[m][attr]) {
						out = append(out, Violation{
							CFD: c, Row: rowIdx, Kind: ConstViolation,
							Attr: attr, TIDs: []int{tid},
						})
					}
				}
				continue
			}
			if len(tids) < 2 {
				continue
			}
			// groupVarConflict semantics: disagree iff some member is
			// not Identical to the FIRST member's value (NaN is never
			// Identical to itself, NULL is Identical to NULL).
			first := rep[attr]
			conflict := false
			for m := 1; m < len(rows); m++ {
				if !rows[m][attr].Identical(first) {
					conflict = true
					break
				}
			}
			if conflict {
				group := append([]int(nil), tids...)
				sort.Ints(group)
				out = append(out, Violation{
					CFD: c, Row: rowIdx, Kind: VarViolation,
					Attr: attr, TIDs: group,
				})
			}
		}
	}
	return out
}

// scatterMerge range-partitions r over w shards, detects each and
// merges twice — from group summaries (MergeShards) and from shipped
// member rows (replayMergeShards) — failing unless the two merges and
// single-process Detect agree byte for byte. It returns the merged
// list, the residual stats and the per-shard phase-1 results.
func scatterMerge(t *testing.T, r *relation.Relation, set *Set, w int) ([]Violation, MergeStats, [][]ShardResult) {
	t.Helper()
	want, err := NewDetector(set).Detect(r)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	shards, offsets := splitRelation(r, w)
	caches := make([]*relation.IndexCache, w)
	results := make([][]ShardResult, w)
	for i, s := range shards {
		caches[i] = relation.NewIndexCache()
		if results[i], err = DetectShards(s, set, caches[i], 2); err != nil {
			t.Fatalf("DetectShards(shard %d): %v", i, err)
		}
	}
	got, stats, err := MergeShards(set, offsets, results, localFetcher(set, shards, offsets, caches, false))
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	ref, refStats, err := replayMergeShards(set, offsets, results, localFetcher(set, shards, offsets, caches, true))
	if err != nil {
		t.Fatalf("replayMergeShards: %v", err)
	}
	// reflect.DeepEqual would call a NaN-free list unequal to itself
	// only through Violation.CFD's patterns; violations hold no floats.
	if !reflect.DeepEqual(ref, want) {
		t.Fatalf("row-shipping replay diverges from single-process Detect:\n got: %v\nwant: %v", ref, want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary merge diverges from single-process Detect:\n got %d violations\nwant %d violations\n got: %v\nwant: %v",
			len(got), len(want), got, want)
	}
	if stats != refStats {
		t.Fatalf("summary merge stats %+v, replay's %+v", stats, refStats)
	}
	return got, stats, results
}

// scatterRelationAndSet is mixedRelationAndSet plus what a summary can
// get wrong: NaN and NULL cells under wildcard right-hand sides, a
// kind-mismatched column on the right, and a tableau whose rows overlap
// on the groups they match.
func scatterRelationAndSet(t *testing.T, seed int64, n int) (*relation.Relation, *Set) {
	r, set := mixedRelationAndSet(t, seed, n)
	rng := rand.New(rand.NewSource(seed + 1000))
	for k := 0; k < n/10; k++ {
		tid := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			r.Set(tid, 2, relation.Float(math.NaN()))
		case 1:
			r.Set(tid, 3, relation.Null())
		case 2:
			r.Set(tid, 2, relation.Null())
		}
	}
	schema := r.Schema()
	set.MustAdd(MustParse("mx([A] -> [C])", schema))
	set.MustAdd(MustParse("mx([D] -> [B, C])", schema))
	set.MustAdd(MustParse("mx([E, A] -> [C])", schema))
	set.MustAdd(MustParse("mx([A, D] -> [E, B]) { ('x', _ || _, 1), (_, 'd1' || 'e0', _), (_, _ || _, _) }", schema))
	return r, set
}

// TestScatterGatherMatchesDetect is the merge's acceptance property: on
// randomized mixed-kind relations (NaN, NULL and kind-mismatched cells
// included), range-partitioned detection merged from group summaries is
// byte-identical to the row-shipping replay and to single-process
// Detect, for every shard count — with cross-shard groups actually
// present (the generator's tiny domains guarantee that, and the test
// asserts it).
func TestScatterGatherMatchesDetect(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r, set := scatterRelationAndSet(t, seed, 400)
		for _, w := range []int{1, 2, 3, 4, 5} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, w), func(t *testing.T) {
				_, stats, _ := scatterMerge(t, r, set, w)
				if w >= 2 && stats.BoundaryGroups == 0 {
					t.Fatal("no boundary groups at workers >= 2 — the residual pass went unexercised")
				}
				if w == 1 && stats.BoundaryGroups != 0 {
					t.Fatalf("single shard reported %d boundary groups", stats.BoundaryGroups)
				}
				if stats.Groups < stats.BoundaryGroups {
					t.Fatalf("stats inconsistent: %+v", stats)
				}
				if f := stats.BoundaryFraction(); f < 0 || f > 1 {
					t.Fatalf("boundary fraction %v out of range", f)
				}
			})
		}
	}
}

// TestScatterSummaryDirected pins the cases a wrong summary breaks
// without any shard noticing. Every case is one X-group cut by the
// range partition (two shards unless stated).
func TestScatterSummaryDirected(t *testing.T) {
	kv := relation.MustSchema("kv",
		relation.Attribute{Name: "K", Kind: relation.KindString},
		relation.Attribute{Name: "V", Kind: relation.KindFloat},
		relation.Attribute{Name: "U", Kind: relation.KindString},
	)
	k, nan := relation.String("k"), relation.Float(math.NaN())
	f := func(x float64) relation.Value { return relation.Float(x) }
	u := relation.String("u")
	cases := []struct {
		name    string
		cfd     string
		w       int
		rows    []relation.Tuple
		want    int // violations
		localOK bool
	}{
		{name: "agrees on each shard, disagrees across", cfd: "kv([K] -> [V])", w: 2, want: 1, localOK: true,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), u}, {k, f(2), u}, {k, f(2), u}}},
		{name: "agrees everywhere", cfd: "kv([K] -> [V])", w: 2, want: 0, localOK: true,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), u}, {k, f(1), u}, {k, f(1), u}}},
		{name: "tail shard holds one disagreeing member", cfd: "kv([K] -> [V])", w: 2, want: 1, localOK: true,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), u}, {k, f(2), u}}},
		{name: "tail shard holds one agreeing member", cfd: "kv([K] -> [V])", w: 2, want: 0, localOK: true,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), u}, {k, f(1), u}}},
		{name: "one member per shard", cfd: "kv([K] -> [V])", w: 3, want: 1, localOK: true,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), u}, {k, f(3), u}}},
		{name: "NaN first member", cfd: "kv([K] -> [V])", w: 2, want: 1, localOK: true,
			rows: []relation.Tuple{{k, nan, u}, {k, f(1), u}}},
		{name: "NaN on both shards is never Identical", cfd: "kv([K] -> [V])", w: 2, want: 1, localOK: true,
			rows: []relation.Tuple{{k, nan, u}, {k, nan, u}}},
		{name: "NaN first member of the tail shard", cfd: "kv([K] -> [V])", w: 2, want: 1, localOK: true,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), u}, {k, nan, u}}},
		{name: "NULL is Identical to NULL across shards", cfd: "kv([K] -> [V])", w: 2, want: 0, localOK: true,
			rows: []relation.Tuple{{k, relation.Null(), u}, {k, relation.Null(), u}}},
		{name: "kind-mismatched Identical values", cfd: "kv([K] -> [V])", w: 2, want: 0, localOK: true,
			rows: []relation.Tuple{{k, f(2), u}, {k, relation.Int(2), u}}},
		{name: "only constant violations", cfd: "kv([K] -> [U='u'])", w: 2, want: 2,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(1), relation.String("x")}, {k, f(1), relation.String("y")}, {k, f(1), u}}},
		{name: "two tableau rows match the group", cfd: "kv([K] -> [U, V]) { (_ || 'u', _), ('k' || _, 1) }", w: 2, want: 6,
			rows: []relation.Tuple{{k, f(1), u}, {k, f(2), relation.String("x")}, {k, f(1), relation.String("y")}, {k, f(3), u}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := relation.New(kv)
			for _, row := range tc.rows {
				r.InsertUnchecked(row)
			}
			set := NewSet(kv)
			set.MustAdd(MustParse(tc.cfd, kv))
			got, stats, results := scatterMerge(t, r, set, tc.w)
			if len(got) != tc.want {
				t.Fatalf("%d violations, want %d: %v", len(got), tc.want, got)
			}
			if stats.BoundaryGroups != 1 || stats.BoundaryTuples != len(tc.rows) {
				t.Fatalf("stats %+v, want one boundary group of %d members", stats, len(tc.rows))
			}
			// The verdict must come from the summaries: no shard's own
			// phase-1 violations carry it.
			for w, sr := range results {
				if tc.localOK && len(sr[0].Groups[0].Vios) != 0 {
					t.Fatalf("shard %d violates locally: %v", w, sr[0].Groups[0].Vios)
				}
			}
		})
	}
}

// TestScatterKeyAbsentOnWorker: a racing append can take a group from a
// worker between the scatter and the boundary round. The merge then
// covers the members it was given — the shard's phase-1 constant
// violations included — and does not fail.
func TestScatterKeyAbsentOnWorker(t *testing.T) {
	r, set := mixedRelationAndSet(t, 3, 200)
	shards, offsets := splitRelation(r, 2)
	caches := []*relation.IndexCache{relation.NewIndexCache(), relation.NewIndexCache()}
	results := make([][]ShardResult, 2)
	for i, s := range shards {
		var err error
		if results[i], err = DetectShards(s, set, caches[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	full := localFetcher(set, shards, offsets, caches, false)
	want, wantStats, err := MergeShards(set, offsets, results, full)
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	got, stats, err := MergeShards(set, offsets, results, func(ci int, keys []string) ([][]BoundaryGroup, error) {
		sides, err := full(ci, keys)
		if err == nil {
			dropped += len(sides[1][0].TIDs)
			sides[1][0] = BoundaryGroup{} // worker 1 no longer has the first key
		}
		return sides, err
	})
	if err != nil {
		t.Fatalf("MergeShards with an absent key: %v", err)
	}
	if dropped == 0 || stats.BoundaryTuples != wantStats.BoundaryTuples-dropped {
		t.Fatalf("covered %d members, want %d - %d", stats.BoundaryTuples, wantStats.BoundaryTuples, dropped)
	}
	consts := func(vs []Violation) (n int) {
		for _, v := range vs {
			if v.Kind == ConstViolation {
				n++
			}
		}
		return n
	}
	if consts(got) != consts(want) {
		t.Fatalf("%d constant violations, want the full merge's %d", consts(got), consts(want))
	}
}

// TestDetectShardsGroupOrder pins the per-CFD group stream as key-sorted
// — the invariant the k-way merge in MergeShards relies on.
func TestDetectShardsGroupOrder(t *testing.T) {
	r, set := mixedRelationAndSet(t, 42, 300)
	results, err := DetectShards(r, set, relation.NewIndexCache(), 3)
	if err != nil {
		t.Fatalf("DetectShards: %v", err)
	}
	if len(results) != set.Len() {
		t.Fatalf("got %d CFD results, want %d", len(results), set.Len())
	}
	for ci, sr := range results {
		if len(sr.Groups) == 0 {
			t.Fatalf("CFD %d produced no groups", ci)
		}
		for i := 1; i < len(sr.Groups); i++ {
			if sr.Groups[i-1].Key >= sr.Groups[i].Key {
				t.Fatalf("CFD %d groups out of key order at %d", ci, i)
			}
		}
	}
}

// TestMergeShardsErrors pins the structured failures: mismatched result
// shapes and a missing fetcher when boundary groups exist.
func TestMergeShardsErrors(t *testing.T) {
	r, set := mixedRelationAndSet(t, 7, 120)
	shards, offsets := splitRelation(r, 2)
	results := make([][]ShardResult, 2)
	for i, s := range shards {
		sr, err := DetectShards(s, set, nil, 1)
		if err != nil {
			t.Fatalf("DetectShards: %v", err)
		}
		results[i] = sr
	}
	if _, _, err := MergeShards(set, offsets, results, nil); err == nil {
		t.Fatal("MergeShards with boundary groups and nil fetcher succeeded")
	}
	short := [][]ShardResult{results[0], results[1][:1]}
	if _, _, err := MergeShards(set, offsets, short, nil); err == nil {
		t.Fatal("MergeShards with a short shard result succeeded")
	}
	bad := func(cfdIdx int, keys []string) ([][]BoundaryGroup, error) {
		return nil, fmt.Errorf("worker unreachable")
	}
	if _, _, err := MergeShards(set, offsets, results, bad); err == nil {
		t.Fatal("MergeShards with a failing fetcher succeeded")
	}
	caches := []*relation.IndexCache{nil, nil}
	good := localFetcher(set, shards, offsets, caches, false)
	for name, mangle := range map[string]func([][]BoundaryGroup) [][]BoundaryGroup{
		"one worker short":  func(s [][]BoundaryGroup) [][]BoundaryGroup { return s[:1] },
		"one key short":     func(s [][]BoundaryGroup) [][]BoundaryGroup { s[1] = s[1][1:]; return s },
		"summary too short": func(s [][]BoundaryGroup) [][]BoundaryGroup { s[0][0].Rows = nil; return s },
	} {
		_, _, err := MergeShards(set, offsets, results, func(ci int, keys []string) ([][]BoundaryGroup, error) {
			sides, err := good(ci, keys)
			return mangle(sides), err
		})
		if err == nil {
			t.Fatalf("MergeShards accepted a fetch with %s", name)
		}
	}
	if _, err := CollectGroups(shards[0], nil, GroupQuery{PartAttrs: []int{0}, Keys: [][]byte{[]byte("\x019:short")}}); err == nil {
		t.Fatal("CollectGroups accepted a truncated key")
	}
}
