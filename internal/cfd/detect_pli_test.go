package cfd

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"semandaq/internal/relation"
)

// keyBuckets is the legacy string-keyed hash index, inline: r's TIDs
// bucketed by the concatenated Value.Encode keys of attrs, each bucket
// ascending.
func keyBuckets(r *relation.Relation, attrs []int) map[string][]int {
	buckets := map[string][]int{}
	for tid, t := range r.Tuples() {
		k := t.Key(attrs)
		buckets[k] = append(buckets[k], tid)
	}
	return buckets
}

// legacyDetectOne is a frozen copy of the pre-PLI detection algorithm:
// partition by string-encoded X keys, visit keys in sorted order,
// compare values with pattern.Matches and Value.Identical. The PLI-based
// Detect must reproduce its output byte-for-byte; this reference is what
// the acceptance test diffs against.
func legacyDetectOne(r *relation.Relation, c *CFD) []Violation {
	buckets := keyBuckets(r, c.lhs)
	var out []Violation
	nl := len(c.lhs)
	for _, key := range slices.Sorted(maps.Keys(buckets)) {
		tids := buckets[key]
		if len(tids) == 0 {
			continue
		}
		rep := r.Tuple(tids[0])
		for rowIdx, row := range c.tableau {
			if !row[:nl].Matches(rep, c.lhs) {
				continue
			}
			for j, attr := range c.rhs {
				p := row[nl+j]
				if p.IsConst() {
					for _, tid := range tids {
						if !p.Matches(r.Tuple(tid)[attr]) {
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
				first := r.Tuple(tids[0])[attr]
				conflict := false
				for _, tid := range tids[1:] {
					if !r.Tuple(tid)[attr].Identical(first) {
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
	}
	return out
}

func legacyDetectSet(r *relation.Relation, set *Set) []Violation {
	var out []Violation
	for _, c := range set.All() {
		out = append(out, legacyDetectOne(r, c)...)
	}
	return out
}

// mixedRelationAndSet builds a randomized relation over mixed-kind
// columns plus a CFD set exercising constant LHS/RHS patterns on every
// kind, wildcard RHS, and multi-attribute keys. Noise comes from random
// Set writes, including kind-mismatched ones (float written into the
// int column), so code-vs-Identical divergences are actually present.
func mixedRelationAndSet(t *testing.T, seed int64, n int) (*relation.Relation, *Set) {
	t.Helper()
	schema := relation.MustSchema("mx",
		relation.Attribute{Name: "A", Kind: relation.KindString},
		relation.Attribute{Name: "B", Kind: relation.KindInt},
		relation.Attribute{Name: "C", Kind: relation.KindFloat},
		relation.Attribute{Name: "D", Kind: relation.KindString},
		relation.Attribute{Name: "E", Kind: relation.KindString},
	)
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(schema)
	as := []string{"x", "y", "z"}
	ds := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	es := []string{"e0", "e1", "e2"}
	for i := 0; i < n; i++ {
		var c relation.Value
		if rng.Intn(2) == 0 {
			c = relation.Int(int64(rng.Intn(3))) // coerced into the float column
		} else {
			c = relation.Float(float64(rng.Intn(3)) + 0.5)
		}
		var b relation.Value
		if rng.Intn(12) == 0 {
			b = relation.Null()
		} else {
			b = relation.Int(int64(rng.Intn(4)))
		}
		r.MustInsert(relation.Tuple{
			relation.String(as[rng.Intn(len(as))]),
			b,
			c,
			relation.String(ds[rng.Intn(len(ds))]),
			relation.String(es[rng.Intn(len(es))]),
		})
	}
	for k := 0; k < n/5; k++ {
		tid := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			r.Set(tid, 3, relation.String(ds[rng.Intn(len(ds))]))
		case 1:
			r.Set(tid, 4, relation.String(es[rng.Intn(len(es))]))
		case 2:
			// Identical-but-differently-coded value in the int column:
			// Float(k) where Int(k) values already live.
			r.Set(tid, 1, relation.Float(float64(rng.Intn(4))))
		case 3:
			r.Set(tid, 2, relation.Float(float64(rng.Intn(3))))
		}
	}
	set := NewSet(schema)
	set.MustAdd(MustParse("mx([A, B] -> [D])", schema))
	set.MustAdd(MustParse("mx([A='x', D] -> [E='e1'])", schema))
	set.MustAdd(MustParse("mx([B=2, A] -> [D='d3', E])", schema))
	set.MustAdd(MustParse("mx([C, A] -> [E])", schema))
	set.MustAdd(MustParse("mx([D] -> [B=1])", schema))
	return r, set
}

// TestDetectMatchesLegacy is the acceptance criterion of the columnar
// refactor: on randomized mixed-kind relations, the PLI-based Detect and
// DetectParallel return violation lists byte-identical to the legacy
// string-key implementation.
func TestDetectMatchesLegacy(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r, set := mixedRelationAndSet(t, seed, 400)
		want := legacyDetectSet(r, set)
		d := NewDetector(set)
		got, err := d.Detect(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: PLI Detect diverges from legacy detection\n got %d violations\nwant %d violations",
				seed, len(got), len(want))
		}
		for _, workers := range []int{2, 3, 8} {
			gotP, err := d.DetectParallel(r, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotP, want) {
				t.Fatalf("seed %d workers %d: DetectParallel diverges from legacy detection", seed, workers)
			}
		}
		// Detection through a warm cache after an unrelated edit must
		// still agree (stale entries rebuilt, fresh ones reused).
		r.Set(0, 4, relation.String("edited-e"))
		want = legacyDetectSet(r, set)
		got, err = d.Detect(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: post-edit Detect through warm cache diverges from legacy", seed)
		}
	}
}

// TestDetectOnCustWorkload pins the equivalence on the paper's benchmark
// workload shape as well (string-only columns, Zipf groups).
func TestDetectOnCustWorkload(t *testing.T) {
	r := noisyCust(t, 2000, 23)
	set := noisyCustSet(t, r.Schema())
	want := legacyDetectSet(r, set)
	got, err := NewDetector(set).Detect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cust workload: PLI Detect diverges from legacy (%d vs %d violations)", len(got), len(want))
	}
}

// legacyIncDetect reproduces the pre-PLI incremental detection, which
// visited touched groups in map order; results are compared as sorted
// multisets since that order was never deterministic.
func legacyIncDetect(r *relation.Relation, c *CFD, tids []int) []Violation {
	buckets := keyBuckets(r, c.lhs)
	only := make(map[int]bool, len(tids))
	touched := make(map[string][]int)
	for _, tid := range tids {
		only[tid] = true
		key := r.Tuple(tid).Key(c.lhs)
		touched[key] = buckets[key]
	}
	var out []Violation
	nl := len(c.lhs)
	for _, groupTIDs := range touched {
		if len(groupTIDs) == 0 {
			continue
		}
		rep := r.Tuple(groupTIDs[0])
		for rowIdx, row := range c.tableau {
			if !row[:nl].Matches(rep, c.lhs) {
				continue
			}
			for j, attr := range c.rhs {
				p := row[nl+j]
				if p.IsConst() {
					for _, tid := range groupTIDs {
						if only[tid] && !p.Matches(r.Tuple(tid)[attr]) {
							out = append(out, Violation{
								CFD: c, Row: rowIdx, Kind: ConstViolation,
								Attr: attr, TIDs: []int{tid},
							})
						}
					}
					continue
				}
				if len(groupTIDs) < 2 {
					continue
				}
				first := r.Tuple(groupTIDs[0])[attr]
				conflict := false
				for _, tid := range groupTIDs[1:] {
					if !r.Tuple(tid)[attr].Identical(first) {
						conflict = true
						break
					}
				}
				if conflict {
					group := append([]int(nil), groupTIDs...)
					sort.Ints(group)
					out = append(out, Violation{
						CFD: c, Row: rowIdx, Kind: VarViolation,
						Attr: attr, TIDs: group,
					})
				}
			}
		}
	}
	return out
}

func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		for k := 0; k < len(a.TIDs) && k < len(b.TIDs); k++ {
			if a.TIDs[k] != b.TIDs[k] {
				return a.TIDs[k] < b.TIDs[k]
			}
		}
		return len(a.TIDs) < len(b.TIDs)
	})
}

func TestIncDetectMatchesLegacy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r, set := mixedRelationAndSet(t, seed+50, 300)
		rng := rand.New(rand.NewSource(seed))
		var delta []int
		for len(delta) < 20 {
			delta = append(delta, rng.Intn(r.Len()))
		}
		for _, c := range set.All() {
			want := legacyIncDetect(r, c, delta)
			pli := relation.BuildPLI(r, c.LHS())
			got := IncDetect(r, c, pli, delta)
			sortViolations(want)
			sortViolations(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cfd %s: IncDetect diverges from legacy (%d vs %d violations)",
					seed, c.Name(), len(got), len(want))
			}
		}
	}
}

// TestDetectSignedZero pins the signed-zero regression: -0.0 == 0.0
// (Identical) but renders differently, so if negative zero survived into
// storage it would intern under its own code and the constant-RHS code
// fast path would report a violation legacy detection does not. Float()
// normalizes -0.0 away; both detectors must agree on zero violations.
func TestDetectSignedZero(t *testing.T) {
	schema := relation.MustSchema("z",
		relation.Attribute{Name: "K", Kind: relation.KindString},
		relation.Attribute{Name: "F", Kind: relation.KindFloat},
	)
	r := relation.New(schema)
	r.MustInsert(relation.Tuple{relation.String("g"), relation.Float(0)})
	r.MustInsert(relation.Tuple{relation.String("g"), relation.Float(math.Copysign(0, -1))})
	negZeroParsed, err := relation.ParseValue("-0", relation.KindFloat)
	if err != nil {
		t.Fatal(err)
	}
	r.MustInsert(relation.Tuple{relation.String("g"), negZeroParsed})
	set := NewSet(schema)
	set.MustAdd(MustParse("z([K='g'] -> [F=0])", schema))
	set.MustAdd(MustParse("z([K] -> [F])", schema))

	want := legacyDetectSet(r, set)
	got, err := NewDetector(set).Detect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("signed zero: PLI %d violations vs legacy %d", len(got), len(want))
	}
	if len(got) != 0 {
		t.Fatalf("0.0 and -0.0 are Identical; got %d violations", len(got))
	}
	// All three zeros must share one code.
	if r.Code(0, 1) != r.Code(1, 1) || r.Code(0, 1) != r.Code(2, 1) {
		t.Fatalf("negative zero interned under its own code")
	}
}

// groupWalkIncDetect is the group-walk incremental detection IncDetect
// replaced, kept as its oracle: it collects the groups the delta TIDs
// land in, reads every touched group in full, matches the LHS on its
// first member and filters constant-RHS checks through a delta-membership
// map. The delta walk must reproduce its output exactly, order included.
func groupWalkIncDetect(r *relation.Relation, c *CFD, pli *relation.PLI, tids []int) []Violation {
	only := make(map[int]bool, len(tids))
	groupSet := make(map[int]bool, len(tids))
	for _, tid := range tids {
		only[tid] = true
		groupSet[pli.GroupOf(tid)] = true
	}
	groups := make([]int, 0, len(groupSet))
	for g := range groupSet {
		groups = append(groups, g)
	}
	sort.Ints(groups)

	var out []Violation
	nl := len(c.lhs)
	for _, g := range groups {
		groupTIDs := pli.Group(g)
		if len(groupTIDs) == 0 {
			continue
		}
		rep := r.Tuple(groupTIDs[0])
		for rowIdx, row := range c.tableau {
			if !row[:nl].Matches(rep, c.lhs) {
				continue
			}
			for j, attr := range c.rhs {
				p := row[nl+j]
				if p.IsConst() {
					for _, tid := range groupTIDs {
						if only[tid] && !p.Matches(r.Tuple(tid)[attr]) {
							out = append(out, Violation{
								CFD: c, Row: rowIdx, Kind: ConstViolation,
								Attr: attr, TIDs: []int{tid},
							})
						}
					}
					continue
				}
				if len(groupTIDs) < 2 {
					continue
				}
				if groupVarConflict(r, r.ColumnCodes(attr), groupTIDs, attr) {
					group := append([]int(nil), groupTIDs...)
					sort.Ints(group)
					out = append(out, Violation{
						CFD: c, Row: rowIdx, Kind: VarViolation,
						Attr: attr, TIDs: group,
					})
				}
			}
		}
	}
	return out
}

// TestIncDetectDeltaWalkMatchesGroupWalk drives random mixed-kind
// relations (NULL, NaN, -0, kind-mismatched cells) through interleaved
// appends and Sets on LHS and RHS attributes, drains them into cached
// partitions through GetDelta, and requires IncDetect's delta walk to
// return exactly the group walk's violations for deltas that are
// duplicated, unsorted, or open new groups — under tableaux mixing
// constant and wildcard right-hand sides.
func TestIncDetectDeltaWalkMatchesGroupWalk(t *testing.T) {
	schema := relation.MustSchema("mx",
		relation.Attribute{Name: "A", Kind: relation.KindString},
		relation.Attribute{Name: "B", Kind: relation.KindInt},
		relation.Attribute{Name: "C", Kind: relation.KindFloat},
		relation.Attribute{Name: "D", Kind: relation.KindString},
		relation.Attribute{Name: "E", Kind: relation.KindString},
	)
	set, err := ParseSet(`
cfd w1: mx([A, B] -> [D])
cfd w2: mx([A='x', D] -> [E='e1'])
cfd w3: mx([B=2, A] -> [D='d3', E])
cfd w4: mx([C, A] -> [E])
cfd w5: mx([D] -> [B=1])
cfd w6: mx([A, C] -> [D, E]) { ('x', _ || 'd1', _), (_, 1.5 || _, 'e0'), (_, _ || _, _), ('y', 0 || 'd2', 'e2') }
`, schema)
	if err != nil {
		t.Fatal(err)
	}
	negZero := relation.Float(math.Copysign(0, -1))
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		str := func(pool []string) relation.Value {
			switch rng.Intn(12) {
			case 0:
				return relation.Null()
			case 1: // a value no row held before: the row opens a new group
				fresh++
				return relation.String(pool[0] + "n" + string(rune('a'+fresh%26)))
			}
			return relation.String(pool[rng.Intn(len(pool))])
		}
		num := func() relation.Value {
			switch rng.Intn(10) {
			case 0:
				return relation.Null()
			case 1:
				return relation.Float(math.NaN())
			case 2:
				return negZero
			case 3:
				return relation.Int(int64(rng.Intn(3))) // coerced into the float column
			}
			return relation.Float(float64(rng.Intn(3)) + 0.5)
		}
		as, ds, es := []string{"x", "y", "z"}, []string{"d0", "d1", "d2", "d3"}, []string{"e0", "e1", "e2"}
		row := func() relation.Tuple {
			b := relation.Int(int64(rng.Intn(4)))
			if rng.Intn(10) == 0 {
				b = relation.Null()
			}
			return relation.Tuple{str(as), b, num(), str(ds), str(es)}
		}
		r := relation.New(schema)
		for i := 0; i < 120; i++ {
			r.MustInsert(row())
		}
		cache := relation.NewIndexCache()
		for _, c := range set.All() {
			cache.GetDelta(r, c.LHS()) // warm: later steps advance and patch
		}
		for step := 0; step < 30; step++ {
			var delta []int
			for k := rng.Intn(6); k > 0; k-- {
				delta = append(delta, r.MustInsert(row()))
			}
			for k := rng.Intn(5); k > 0; k-- {
				tid := rng.Intn(r.Len())
				switch rng.Intn(5) {
				case 0:
					r.Set(tid, 0, str(as))
				case 1: // Float(k) where Int(k) lives: Identical, differently coded
					r.Set(tid, 1, relation.Float(float64(rng.Intn(4))))
				case 2:
					r.Set(tid, 2, num())
				case 3:
					r.Set(tid, 3, str(ds))
				case 4:
					r.Set(tid, 4, str(es))
				}
				delta = append(delta, tid)
			}
			for k := rng.Intn(4); k > 0 && r.Len() > 0; k-- {
				delta = append(delta, rng.Intn(r.Len())) // untouched rows
			}
			if len(delta) > 0 {
				delta = append(delta, delta[rng.Intn(len(delta))]) // a duplicate
			}
			rng.Shuffle(len(delta), func(i, j int) { delta[i], delta[j] = delta[j], delta[i] })
			for _, c := range set.All() {
				pli := cache.GetDelta(r, c.LHS())
				want := groupWalkIncDetect(r, c, pli, delta)
				got := IncDetect(r, c, pli, delta)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d cfd %s delta %v: delta walk diverges from group walk\n got %v\nwant %v",
						seed, step, c.Name(), delta, got, want)
				}
			}
		}
	}
}
