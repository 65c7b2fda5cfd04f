package cfd

import (
	"fmt"
	"slices"

	"semandaq/internal/fanout"
	"semandaq/internal/relation"
)

// DetectParallel returns exactly what Detect returns — the same
// violations in the same order — but partitions the work across a pool
// of `workers` goroutines. Zero (or negative) workers means the
// machine's pool (fanout.Workers).
//
// Parallelization exploits the grouping structure of CFD detection: a
// violation is always contained in a single X-group, so each per-CFD
// PLI's group range is split into contiguous chunks, every chunk is an
// independent DetectGroups job, and the per-chunk outputs are
// concatenated in (CFD, chunk) order. No locks are needed on the data
// path: workers only read the relation and write disjoint result slots.
// PLI acquisition for the different CFDs runs concurrently too, through
// the detector's index cache (which is concurrency-safe), so a warm
// cache skips the partition phase entirely.
func (d *Detector) DetectParallel(r *relation.Relation, workers int) ([]Violation, error) {
	workers = fanout.Workers(workers)
	cfds := d.set.cfds
	if workers == 1 || len(cfds) == 0 || r.Len() == 0 {
		return d.Detect(r)
	}
	for _, c := range cfds {
		if !r.Schema().Equal(c.schema) {
			return nil, fmt.Errorf("cfd: detecting %s over relation %s with schema %s",
				c.name, r.Schema().Name(), c.schema.Name())
		}
	}

	// Stage 1: acquire the per-CFD X-partitions concurrently (index
	// building is the serial fraction of Detect), and resolve each CFD's
	// constant codes once for all of its chunks.
	type acquired struct {
		pli  *relation.PLI
		prep cfdPrep
	}
	got := fanout.Map(len(cfds), workers, func(i int) acquired {
		return acquired{d.cache.Get(r, cfds[i].lhs), newPrep(r, cfds[i])}
	})

	// Stage 2: each CFD's group range is cut into up to `workers`
	// contiguous chunks, so every worker stays busy even for a
	// single-CFD set. Concatenating the chunks in (CFD, chunk) order
	// reproduces the serial sorted-group traversal.
	type job struct{ cfd, lo, hi int }
	var jobs []job
	for i, a := range got {
		for _, c := range groupChunks(a.pli.NumGroups(), workers) {
			jobs = append(jobs, job{i, c[0], c[1]})
		}
	}
	return slices.Concat(fanout.Map(len(jobs), workers, func(k int) []Violation {
		j, a := jobs[k], got[jobs[k].cfd]
		return detectGroupsPrepared(r, cfds[j.cfd], a.pli, j.lo, j.hi, a.prep)
	})...), nil
}

// groupChunks cuts the group range [0, n) into min(chunks, n)
// contiguous [lo, hi) ranges, in order, whose sizes differ by at most
// one.
func groupChunks(n, chunks int) [][2]int {
	chunks = min(chunks, n)
	if chunks <= 0 {
		return nil
	}
	out := make([][2]int, chunks)
	size, rem := n/chunks, n%chunks
	lo := 0
	for k := range out {
		hi := lo + size
		if k < rem {
			hi++
		}
		out[k] = [2]int{lo, hi}
		lo = hi
	}
	return out
}
