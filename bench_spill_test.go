// BenchmarkSpillDetect is the tiered-storage headline: warm detection
// at the 1M-row E1 scale with the index budget pinned to an eighth of
// the resident working set, against the unlimited baseline. The
// budgeted run must stay rebuild-free — every eviction is a demotion to
// a segment file and every revival a zero-copy page-in, asserted via
// the spills/pageins/misses counters — so the gap between the two
// sub-benchmarks is the cost of tiering, not of recomputation.
package main

import (
	"fmt"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

func BenchmarkSpillDetect(b *testing.B) {
	const n = 1_000_000
	dirty, _ := dirtyCust(n, 0.05, 17)
	set := datagen.CustConstraints()

	// Measure the resident working set once on a throwaway session: the
	// bytes the four cached LHS partitions hold after a warm detect.
	probe, err := engine.NewSession("spill-probe", dirty, set)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := probe.Detect(); err != nil {
		b.Fatal(err)
	}
	working := probe.IndexResidentBytes()
	if working <= 0 {
		b.Fatalf("probe measured no resident index bytes")
	}
	budget := working / 8

	b.Run(fmt.Sprintf("unlimited/n=%d", n), func(b *testing.B) {
		s, err := engine.NewSession("spill-unlimited", dirty, set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Detect(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Detect(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.IndexResidentBytes())/(1<<20), "resident-MB")
	})

	b.Run(fmt.Sprintf("budget=working÷8/n=%d", n), func(b *testing.B) {
		if !relation.MmapSupported() {
			b.Skip("no mmap on this platform")
		}
		s, err := engine.NewSession("spill-budgeted", dirty, set)
		if err != nil {
			b.Fatal(err)
		}
		store, err := relation.NewSpillStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s.SetSpill(store)
		s.SetIndexBudget(budget)
		// Warm up: cold builds plus the first demote/page-in cycle,
		// so the timed loop measures the tiered steady state.
		for i := 0; i < 2; i++ {
			if _, err := s.Detect(); err != nil {
				b.Fatal(err)
			}
		}
		warm := s.IndexStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Detect(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := s.IndexStats()
		// The tier must absorb the budget pressure: zero rebuilds and
		// zero refinements after warm-up — only demotions and page-ins.
		if after.Misses != warm.Misses || after.Refines != warm.Refines {
			b.Fatalf("budgeted detect rebuilt partitions: %+v -> %+v", warm, after)
		}
		if after.Spills == 0 {
			b.Fatalf("budget %d never demoted an entry: %+v", budget, after)
		}
		if after.Pageins == 0 {
			b.Fatalf("budget %d never paged an entry back in: %+v", budget, after)
		}
		if resident := s.IndexResidentBytes(); resident > working {
			b.Fatalf("budgeted resident set %d exceeds unlimited working set %d", resident, working)
		}
		b.ReportMetric(float64(s.IndexResidentBytes())/(1<<20), "resident-MB")
	})
}
