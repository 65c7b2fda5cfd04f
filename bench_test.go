// Package repro's root benchmarks wrap the measured kernel of every
// experiment in DESIGN.md (E1–E12) as a testing.B benchmark, one per
// table/figure. The experiment harness (cmd/experiments) prints the full
// parameter sweeps; these benchmarks pin one representative configuration
// each so `go test -bench=.` regenerates a comparable row and allocation
// profile.
package main

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/cind"
	"semandaq/internal/cqa"
	"semandaq/internal/datagen"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/engine"
	"semandaq/internal/experiments"
	"semandaq/internal/matching"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/semandaq"
	"semandaq/internal/sqlgen"
)

// dirtyCust mirrors the workload builder of the experiment harness.
func dirtyCust(n int, rate float64, seed int64) (*relation.Relation, *noise.Truth) {
	clean := datagen.Cust(n, seed)
	schema := clean.Schema()
	return noise.Dirty(clean, noise.Options{
		Rate:  rate,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  seed + 1,
	})
}

// BenchmarkE1DetectScaleTuples measures native CFD violation detection
// (E1: detection time vs #tuples). Sub-benchmarks sweep the size.
func BenchmarkE1DetectScaleTuples(b *testing.B) {
	set := datagen.CustConstraints()
	for _, n := range []int{10_000, 50_000, 100_000} {
		dirty, _ := dirtyCust(n, 0.05, 11)
		b.Run(fmt.Sprintf("native/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfd.NewDetector(set).Detect(dirty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	dirty, _ := dirtyCust(50_000, 0.05, 11)
	b.Run("sql/n=50000", func(b *testing.B) {
		rn := sqlgen.NewRunner()
		if _, err := rn.Load("cust", dirty); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rn.DetectSet(set, "cust"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2DetectTableauSize measures SQL detection against tableau
// size: the merged plan vs the naive per-row plan (E2).
func BenchmarkE2DetectTableauSize(b *testing.B) {
	dirty, _ := dirtyCust(20_000, 0.05, 13)
	for _, rows := range []int{1, 16, 64} {
		set := datagen.CustTableau(rows)
		rn := sqlgen.NewRunner()
		if _, err := rn.Load("cust", dirty); err != nil {
			b.Fatal(err)
		}
		gens, err := rn.InstallCFD(set.CFD(0), "cust")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("merged/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rn.DetectCFD(gens[0], "cust"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("perrow/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rn.DetectCFDPerRow(gens[0], "cust"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3DetectNoise measures detection across noise rates (E3).
func BenchmarkE3DetectNoise(b *testing.B) {
	set := datagen.CustConstraints()
	for _, rate := range []float64{0, 0.05, 0.10} {
		dirty, _ := dirtyCust(50_000, rate, 17)
		b.Run(fmt.Sprintf("rate=%.0f%%", rate*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfd.NewDetector(set).Detect(dirty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4RepairQuality measures BatchRepair including its quality
// scoring (E4). The benchmark reports correctness metrics once.
func BenchmarkE4RepairQuality(b *testing.B) {
	set := datagen.CustConstraints()
	dirty, truth := dirtyCust(5_000, 0.05, 19)
	var quality noise.Quality
	b.Run("n=5000/rate=5%", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := repair.Batch(dirty, set, repair.Options{})
			if err != nil {
				b.Fatal(err)
			}
			quality = noise.Score(res.Changes, truth)
		}
	})
	if quality.Recall < 0.5 {
		b.Fatalf("repair recall degraded: %+v", quality)
	}
}

// BenchmarkE5RepairScale measures BatchRepair across sizes (E5).
func BenchmarkE5RepairScale(b *testing.B) {
	set := datagen.CustConstraints()
	for _, n := range []int{5_000, 20_000} {
		dirty, _ := dirtyCust(n, 0.05, 23)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Batch(dirty, set, repair.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6IncRepair compares IncRepair on a small delta against
// BatchRepair on the combined relation (E6).
func BenchmarkE6IncRepair(b *testing.B) {
	set := datagen.CustConstraints()
	base := datagen.Cust(20_000, 29)
	schema := base.Schema()
	deltaClean := datagen.Cust(200, 31)
	deltaDirty, _ := noise.Dirty(deltaClean, noise.Options{
		Rate:  0.3,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  37,
	})
	delta := make([]relation.Tuple, deltaDirty.Len())
	for i := range delta {
		delta[i] = deltaDirty.Tuple(i).Clone()
	}
	b.Run("inc/delta=1%", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.AppendAndRepair(base, delta, set, repair.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	combined := base.Clone()
	for _, tup := range delta {
		combined.MustInsert(tup.Clone())
	}
	b.Run("batch/delta=1%", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.Batch(combined, set, repair.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7Discovery measures full CFD discovery (E7).
func BenchmarkE7Discovery(b *testing.B) {
	for _, n := range []int{2_000, 10_000} {
		r := datagen.Cust(n, 41)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := discovery.Discover(r, discovery.Options{MinSupport: 10, MaxLHS: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8MatchQuality measures the derived-RCK matcher (E8) and
// asserts the quality headline (RCK recall beats exact matching).
func BenchmarkE8MatchQuality(b *testing.B) {
	_, y, keys, err := experiments.MatchingSetup()
	if err != nil {
		b.Fatal(err)
	}
	cardS, billingS := datagen.CardSchema(), datagen.BillingSchema()
	card, billing, truth := datagen.CardBilling(datagen.CardBillingOptions{
		Persons: 2_000, DupRate: 0.5, Perturb: 0.6, Seed: 47,
	})
	m, err := matching.NewMatcher(cardS, billingS, keys)
	if err != nil {
		b.Fatal(err)
	}
	var rckQ matching.Quality
	b.Run("rck/persons=2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matches, err := m.Run(card, billing)
			if err != nil {
				b.Fatal(err)
			}
			rckQ = matching.Evaluate(matches, truth)
		}
	})
	exactKey, err := matching.NewRCK("exactY", cardS, billingS, y)
	if err != nil {
		b.Fatal(err)
	}
	exact, err := matching.NewMatcher(cardS, billingS, []*matching.RCK{exactKey})
	if err != nil {
		b.Fatal(err)
	}
	var exactQ matching.Quality
	b.Run("exact/persons=2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matches, err := exact.Run(card, billing)
			if err != nil {
				b.Fatal(err)
			}
			exactQ = matching.Evaluate(matches, truth)
		}
	})
	if rckQ.Recall <= exactQ.Recall {
		b.Fatalf("RCK recall %.3f should beat exact %.3f", rckQ.Recall, exactQ.Recall)
	}
}

// BenchmarkE9CINDDetect measures CIND detection, native vs SQL (E9).
func BenchmarkE9CINDDetect(b *testing.B) {
	psi := datagen.OrdersCIND()
	cdRel, bookRel, _ := datagen.Orders(50_000, 25_000, 500, 53)
	b.Run("native/cd=50000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cind.Detect(cdRel, bookRel, psi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sql/cd=50000", func(b *testing.B) {
		rn := sqlgen.NewRunner()
		if _, err := rn.Load("CD", cdRel); err != nil {
			b.Fatal(err)
		}
		if _, err := rn.Load("book", bookRel); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rn.DetectCIND(psi, "CD", "book"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Reasoning measures satisfiability and implication checks
// (E10).
func BenchmarkE10Reasoning(b *testing.B) {
	for _, rows := range []int{10, 100} {
		set := datagen.CustTableau(rows)
		for _, c := range datagen.CustConstraints().All() {
			set.MustAdd(c)
		}
		phi := cfd.MustParse("cust([CC='44', AC='131'] -> [CT='edi'])", set.Schema())
		b.Run(fmt.Sprintf("satisfiable/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := cfd.Satisfiable(set); !ok {
					b.Fatal("must be satisfiable")
				}
			}
		})
		b.Run(fmt.Sprintf("implies/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := cfd.Implies(set, phi)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("must be implied")
				}
			}
		})
	}
}

// BenchmarkE11CQA measures certain-answer evaluation against direct
// evaluation (E11).
func BenchmarkE11CQA(b *testing.B) {
	r := datagen.Cust(50_000, 59)
	schema := r.Schema()
	dirty := r.Clone()
	for i := 0; i < 2_500; i++ {
		t0 := r.Tuple(i % r.Len()).Clone()
		t0[schema.MustIndex("CT")] = relation.String("conflict-city")
		dirty.MustInsert(t0)
	}
	key := []int{schema.MustIndex("PN")}
	ccIdx, ctIdx := schema.MustIndex("CC"), schema.MustIndex("CT")
	q := cqa.Query{
		Pred:    func(tp relation.Tuple) bool { return tp[ccIdx].Equal(relation.String("44")) },
		Project: []int{ctIdx},
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cqa.Direct(dirty, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("certain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cqa.Certain(dirty, key, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12EndToEnd measures the full Semandaq loop: detect, repair,
// accept (E12).
func BenchmarkE12EndToEnd(b *testing.B) {
	set := datagen.CustConstraints()
	dirty, _ := dirtyCust(10_000, 0.03, 61)
	b.Run("n=10000/rate=3%", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := semandaq.NewProject("bench", dirty, set)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Detect(); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Repair(); err != nil {
				b.Fatal(err)
			}
			if err := p.Accept(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13ParallelDetect compares the serial detector against the
// worker-pool detector that backs the semandaqd service, on the 10k
// benchmark dataset. The outputs are asserted byte-identical — the
// parallel detector's contract is "same violations, same order, less
// wall-clock".
func BenchmarkE13ParallelDetect(b *testing.B) {
	set := datagen.CustConstraints()
	dirty, _ := dirtyCust(10_000, 0.05, 79)
	d := cfd.NewDetector(set)
	serial, err := d.Detect(dirty)
	if err != nil {
		b.Fatal(err)
	}
	parallel, err := d.DetectParallel(dirty, 0)
	if err != nil {
		b.Fatal(err)
	}
	if fmt.Sprint(serial) != fmt.Sprint(parallel) {
		b.Fatal("parallel violation set diverges from serial")
	}
	b.Run("serial/n=10000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Detect(dirty); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallel/n=10000/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.DetectParallel(dirty, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscoveryFDs measures the TANE-style FD lattice walk alone —
// the hot loop of profiling — on clean E1-style customer data. This is
// the perf gate for the partition-intersection PLI walk: level-k
// partitions are refined from level-(k-1) ones instead of being rebuilt
// from scratch per lattice node.
func BenchmarkDiscoveryFDs(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		r := datagen.Cust(n, 83)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := discovery.FDs(r, discovery.Options{MaxLHS: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscoveryWarmSession measures repeated full discovery through
// an engine session — the service steady state, where the per-dataset
// PLI cache should turn every lattice partition into a lookup.
func BenchmarkDiscoveryWarmSession(b *testing.B) {
	r := datagen.Cust(20_000, 89)
	s, err := engine.NewSession("bench", r, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := discovery.Options{MinSupport: 10, MaxLHS: 2}
	if _, err := s.Discover(opts, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Discover(opts, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendDetect measures the service's streaming steady state:
// append a small delta to a warm 100k-tuple session, incrementally
// repair it, and re-detect. The incremental path appends into the
// session relation and absorbs the delta into the cached PLIs
// (PLI.advance — zero rebuilds, asserted by the engine tests); the
// rebuild baseline reproduces the pre-advance architecture, where every
// append cloned the base into a fresh combined relation and every
// partition was counting-sorted from scratch on the next detect. This
// is the perf gate for incremental PLI maintenance.
func BenchmarkAppendDetect(b *testing.B) {
	const n, deltaSize = 100_000, 100
	set := datagen.CustConstraints()
	base := datagen.Cust(n, 97)
	// Deltas are clones of base rows: consistent by construction, so
	// both paths measure pure append+detect mechanics, not repair work.
	mkDelta := func(i int) []relation.Tuple {
		out := make([]relation.Tuple, deltaSize)
		for j := range out {
			out[j] = base.Tuple((i*deltaSize + j*31) % base.Len()).Clone()
		}
		return out
	}
	b.Run(fmt.Sprintf("incremental/n=%d/delta=%d", n, deltaSize), func(b *testing.B) {
		s, err := engine.NewSession("bench-append", base, set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Detect(); err != nil {
			b.Fatal(err)
		}
		warm := s.IndexStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Append(mkDelta(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Detect(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := s.IndexStats()
		if after.Misses != warm.Misses || after.Refines != warm.Refines {
			b.Fatalf("incremental path rebuilt partitions: %+v -> %+v", warm, after)
		}
	})
	b.Run(fmt.Sprintf("rebuild/n=%d/delta=%d", n, deltaSize), func(b *testing.B) {
		cur := base.Clone()
		d := cfd.NewDetector(set)
		if _, err := d.Detect(cur); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := repair.AppendAndRepair(cur, mkDelta(i), set, repair.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cur = res.Repaired
			if _, err := d.Detect(cur); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRepairPatch measures the DIRTY streaming steady state:
// append a small corrupted delta to a warm 100k-tuple session, let the
// incremental repair fix the delta cells, and re-detect. The constraint
// set is deliberately chained — psi1 repairs CT from the (CC, AC)
// region tableau while psi2 keys a detection partition on (CT, ZIP) —
// so every repair write lands in the patch journal of a column a cached
// partition depends on. The incremental path drains those journals into
// the cached PLIs per cell (PLI.patch — zero rebuilds, asserted below
// via CacheStats); the rebuild baseline reproduces the pre-patch
// architecture, where any Set hard-invalidated its column and the next
// detect counting-sorted the affected partitions from scratch. This is
// the perf gate for per-cell PLI patching.
func BenchmarkRepairPatch(b *testing.B) {
	const n, deltaSize = 100_000, 100
	schema := datagen.CustSchema()
	set, err := cfd.ParseSet(`
cfd psi1: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), ('44', '141' || 'gla'), ('44', '20' || 'ldn'), ('01', '908' || 'mh'), ('01', '212' || 'nyc'), ('01', '650' || 'mtv') }
cfd psi2: cust([CT, ZIP] -> [STR])
`, schema)
	if err != nil {
		b.Fatal(err)
	}
	base := datagen.Cust(n, 103)
	ct := schema.MustIndex("CT")
	// Deltas are clones of base rows with every third CT corrupted: the
	// repair re-derives the city from psi1's tableau, and each fix is a
	// per-cell patch into psi2's cached (CT, ZIP) partition.
	mkDelta := func(i int) []relation.Tuple {
		out := make([]relation.Tuple, deltaSize)
		for j := range out {
			out[j] = base.Tuple((i*deltaSize + j*37) % base.Len()).Clone()
			if j%3 == 0 {
				out[j][ct] = relation.String("zzz-corrupt")
			}
		}
		return out
	}
	b.Run(fmt.Sprintf("incremental/n=%d/delta=%d", n, deltaSize), func(b *testing.B) {
		s, err := engine.NewSession("bench-repair", base, set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Detect(); err != nil {
			b.Fatal(err)
		}
		warm := s.IndexStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Append(mkDelta(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Detect(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := s.IndexStats()
		if after.Misses != warm.Misses || after.Refines != warm.Refines {
			b.Fatalf("incremental path rebuilt partitions: %+v -> %+v", warm, after)
		}
		if after.Patches == warm.Patches {
			b.Fatalf("incremental path drained no patches: %+v -> %+v", warm, after)
		}
	})
	b.Run(fmt.Sprintf("rebuild/n=%d/delta=%d", n, deltaSize), func(b *testing.B) {
		cur := base.Clone()
		d := cfd.NewDetector(set)
		if _, err := d.Detect(cur); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := repair.AppendAndRepair(cur, mkDelta(i), set, repair.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cur = res.Repaired
			if _, err := d.Detect(cur); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationGroupedVsNaive quantifies the grouped detection
// algorithm against the textbook quadratic detector on identical data:
// the reason DetectOne partitions by X instead of comparing tuple pairs.
func BenchmarkAblationGroupedVsNaive(b *testing.B) {
	dirty, _ := dirtyCust(2_000, 0.05, 67)
	c := datagen.CustConstraints().CFD(0) // phi1: ([CC='44', ZIP] -> [STR])
	b.Run("grouped/n=2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfd.DetectOne(dirty, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive/n=2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfd.DetectNaive(dirty, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRepairValueSelection compares the exact weighted
// medoid value choice against the cheap weighted-mode approximation for
// equivalence classes (Options.ExactValueSelection).
func BenchmarkAblationRepairValueSelection(b *testing.B) {
	set := datagen.CustConstraints()
	dirty, truth := dirtyCust(10_000, 0.05, 71)
	for _, spec := range []struct {
		name  string
		exact int
	}{
		{"medoid", 1 << 20}, // always exact
		{"mode", 1},         // always weighted mode
	} {
		var q noise.Quality
		b.Run(spec.name+"/n=10000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := repair.Batch(dirty, set, repair.Options{ExactValueSelection: spec.exact})
				if err != nil {
					b.Fatal(err)
				}
				q = noise.Score(res.Changes, truth)
			}
		})
		if q.Recall < 0.5 {
			b.Fatalf("%s: recall collapsed: %+v", spec.name, q)
		}
	}
}

// BenchmarkAblationExistsDecorrelation measures the EXISTS hash
// decorrelation in minidb against the per-row fallback, using the CIND
// detection query (equality correlation, decorrelatable) vs a non-equi
// variant that forces per-outer-row re-execution.
func BenchmarkAblationExistsDecorrelation(b *testing.B) {
	cdRel, bookRel, _ := datagen.Orders(5_000, 2_500, 50, 73)
	rn := sqlgen.NewRunner()
	if _, err := rn.Load("CD", cdRel); err != nil {
		b.Fatal(err)
	}
	if _, err := rn.Load("book", bookRel); err != nil {
		b.Fatal(err)
	}
	decorrelated := "SELECT t._tid AS tid FROM CD t WHERE t.genre = 'a-book' AND NOT EXISTS (SELECT s.title FROM book s WHERE s.title = t.album AND s.price = t.price AND s.format = 'audio')"
	// The <= correlation cannot decorrelate: falls back to per-row.
	fallback := "SELECT t._tid AS tid FROM CD t WHERE t.genre = 'a-book' AND NOT EXISTS (SELECT s.title FROM book s WHERE s.title = t.album AND s.price <= t.price AND s.format = 'audio')"
	b.Run("hash-decorrelated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rn.DB.Query(decorrelated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perrow-fallback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rn.DB.Query(fallback); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDCDetect measures denial-constraint detection of the
// pay-scale DC (dept equality + two order predicates) on emp relations
// with 0.1% planted pay inversions: the PLI-partitioned dominance
// sweep against the all-pairs naive reference. The sweep variant runs
// against a warm session-style index cache, matching the service
// steady state; outputs are asserted byte-identical before timing.
func BenchmarkDCDetect(b *testing.B) {
	d, err := dc.Parse(datagen.EmpDCText(), datagen.EmpSchema())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10_000, 50_000} {
		data := datagen.Emp(n, n/1000, 7)
		cache := relation.NewIndexCache()
		want := dc.Detect(data, d, dc.Options{Cache: cache})
		if len(want) == 0 {
			b.Fatalf("n=%d: planted violations not detected", n)
		}
		if naive := dc.DetectNaive(data, d); !reflect.DeepEqual(naive, want) {
			b.Fatalf("n=%d: sweep and naive disagree (%d vs %d violations)", n, len(want), len(naive))
		}
		b.Run(fmt.Sprintf("sweep/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := dc.Detect(data, d, dc.Options{Cache: cache}); len(got) != len(want) {
					b.Fatalf("violations = %d, want %d", len(got), len(want))
				}
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := dc.DetectNaive(data, d); len(got) != len(want) {
					b.Fatalf("violations = %d, want %d", len(got), len(want))
				}
			}
		})
	}
}

// BenchmarkDCRelax measures relaxation-repair proposal generation for
// a violated salary-cap DC, including the re-detection that verifies
// each candidate weakening leaves the data consistent. (A constant
// threshold is used because it exercises the tighten-op and
// shift-const paths; a DC whose order predicates are all strict and
// cross-tuple, like the pay-scale one, can only be dropped.)
func BenchmarkDCRelax(b *testing.B) {
	d, err := dc.Parse("dc cap: !( t.SAL >= 8000 )", datagen.EmpSchema())
	if err != nil {
		b.Fatal(err)
	}
	data := datagen.Emp(10_000, 10, 7)
	cache := relation.NewIndexCache()
	vios := dc.Detect(data, d, dc.Options{Cache: cache})
	if len(vios) == 0 {
		b.Fatal("planted violations not detected")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weaks := dc.Relax(data, d, vios, dc.Options{Cache: cache}); len(weaks) == 0 {
			b.Fatal("no weakenings proposed")
		}
	}
}
