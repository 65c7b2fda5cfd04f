package cfd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/relation"
)

// noisyCust builds a pseudo-random customer instance with planted
// violations of both kinds: zip groups that disagree on street
// (variable) and 908 rows with a wrong city (constant). Deterministic
// in the seed.
func noisyCust(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := relation.StringSchema("cust", "CC", "AC", "PN", "NM", "STR", "CT", "ZIP")
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	for i := 0; i < n; i++ {
		zip := fmt.Sprintf("EH%d", rng.Intn(n/4+1))
		street := "st-" + zip
		city := "mh"
		if rng.Float64() < 0.1 {
			street = fmt.Sprintf("noise-%d", i) // variable violations under phi1
		}
		if rng.Float64() < 0.05 {
			city = "nyc" // constant violations under phi2
		}
		cc, ac := "44", "131"
		if i%3 == 0 {
			cc, ac = "01", "908"
		}
		r.MustInsert(relation.Tuple{
			relation.String(cc), relation.String(ac),
			relation.String(fmt.Sprintf("%07d", i)), relation.String("nm"),
			relation.String(street), relation.String(city), relation.String(zip),
		})
	}
	return r
}

func noisyCustSet(t testing.TB, schema *relation.Schema) *Set {
	t.Helper()
	set, err := ParseSet(`
cfd phi1: cust([CC='44', ZIP] -> [STR])
cfd phi2: cust([CC='01', AC='908', PN] -> [CT='mh'])
`, schema)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// serialDetect is the serial detection loop DetectParallel replaced,
// kept as its oracle: one CFD at a time in set order, each CFD's whole
// group range in one DetectGroups call.
func serialDetect(d *Detector, r *relation.Relation) ([]Violation, error) {
	var out []Violation
	for _, c := range d.set.cfds {
		if !r.Schema().Equal(c.schema) {
			return nil, fmt.Errorf("cfd: detecting %s over relation %s with schema %s",
				c.name, r.Schema().Name(), c.schema.Name())
		}
		pli := d.cache.Get(r, c.lhs)
		out = append(out, DetectGroups(r, c, pli, 0, pli.NumGroups())...)
	}
	return out, nil
}

// TestDetectParallelMatchesSerial is the determinism contract: for any
// worker count the parallel detector returns the exact slice the serial
// detector returns — same violations, same order.
func TestDetectParallelMatchesSerial(t *testing.T) {
	r := noisyCust(t, 2_000, 7)
	set := noisyCustSet(t, r.Schema())
	d := NewDetector(set)
	want, err := serialDetect(d, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture has no violations; the test would be vacuous")
	}
	for _, workers := range []int{0, 1, 2, 3, 5, 8, 64} {
		got, err := d.DetectParallel(r, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel result diverges from serial (%d vs %d violations)",
				workers, len(got), len(want))
		}
	}
}

// TestDetectParallelRepeatable re-runs the parallel detector and
// requires identical output every time (no map-order leakage).
func TestDetectParallelRepeatable(t *testing.T) {
	r := noisyCust(t, 1_000, 11)
	set := noisyCustSet(t, r.Schema())
	d := NewDetector(set)
	first, err := d.DetectParallel(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := d.DetectParallel(r, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d produced a different violation list", i)
		}
	}
}

// TestColdDetectBuildsEachPartitionOnce: on a fresh cache, a detect
// builds each distinct X-partition once, however many CFDs share it and
// however wide the pool — partitions are taken on the caller's
// goroutine, so two CFDs with one LHS never race to build it twice.
func TestColdDetectBuildsEachPartitionOnce(t *testing.T) {
	r := noisyCust(t, 2_000, 19)
	set := noisyCustSet(t, r.Schema()) // phi1 on [CC, ZIP], phi2 on [CC, AC, PN]
	set.MustAdd(MustParse("cust([CC, ZIP] -> [CT])", r.Schema()))
	const distinctLHS = 2
	cache := relation.NewIndexCache()
	if _, err := NewDetectorWithCache(set, cache).DetectParallel(r, 8); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != distinctLHS {
		t.Errorf("DetectParallel: %d partition builds for %d distinct LHS lists", got, distinctLHS)
	}
	cache = relation.NewIndexCache()
	if _, err := DetectShards(r, set, cache, 8); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != distinctLHS {
		t.Errorf("DetectShards: %d partition builds for %d distinct LHS lists", got, distinctLHS)
	}
}

// TestDetectGroupsPartition checks the partitioning identity
// DetectGroups is built on: detection over any chunking of the sorted
// group range, concatenated in order, equals full detection.
func TestDetectGroupsPartition(t *testing.T) {
	r := noisyCust(t, 500, 13)
	set := noisyCustSet(t, r.Schema())
	c := set.CFD(0)
	pli := relation.BuildPLI(r, c.lhs)
	n := pli.NumGroups()
	want := DetectGroups(r, c, pli, 0, n)
	for _, chunks := range []int{2, 3, 7} {
		var got []Violation
		size := (n + chunks - 1) / chunks
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			got = append(got, DetectGroups(r, c, pli, lo, hi)...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunks=%d: concatenated chunk results diverge from full detection", chunks)
		}
	}
}

func TestDetectParallelSchemaMismatch(t *testing.T) {
	r := noisyCust(t, 10, 17)
	other, err := relation.StringSchema("other", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet(other)
	set.MustAdd(MustParse("other([A] -> [B])", other))
	if _, err := NewDetector(set).DetectParallel(r, 4); err == nil {
		t.Error("schema mismatch should fail")
	}
}

func TestDetectParallelEmpty(t *testing.T) {
	s, err := relation.StringSchema("cust", "CC", "AC", "PN", "NM", "STR", "CT", "ZIP")
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	set := noisyCustSet(t, s)
	vs, err := NewDetector(set).DetectParallel(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("empty relation produced %d violations", len(vs))
	}
}
