package cfd

import (
	"fmt"
	"slices"

	"semandaq/internal/fanout"
	"semandaq/internal/relation"
)

// DetectParallel returns every violation of the detector's CFD set in
// r, in the serial order — CFD by CFD in set order, each CFD's X-groups
// in PLI order — with the group scan spread over a pool of `workers`
// goroutines. Zero (or negative) workers means the machine's pool
// (fanout.Workers); a pool of one is the plain serial loop.
//
// Parallelization exploits the grouping structure of CFD detection: a
// violation is always contained in a single X-group, so each CFD's group
// range is cut into contiguous chunks, every chunk is an independent
// detectGroupsPrepared job, and the per-chunk outputs are concatenated
// in (CFD, chunk) order (see scanChunks). No locks are needed on the
// data path: workers only read the relation and write disjoint result
// slots.
func (d *Detector) DetectParallel(r *relation.Relation, workers int) ([]Violation, error) {
	chunks, _, err := scanChunks(r, d.set, d.cache, workers, detectGroupsPrepared)
	if err != nil {
		return nil, err
	}
	return slices.Concat(chunks...), nil
}

// scanChunks is the one skeleton behind DetectParallel and DetectShards.
// The caller's goroutine walks set in order: it checks each CFD's
// schema, gets its X-partition through cache and resolves its codes
// (newPrep), so a cold partition is built once, by one goroutine. Then
// every CFD's group range is cut into up to `workers` contiguous chunks
// — every worker stays busy even for a single-CFD set — and all (CFD,
// chunk) jobs fan out through fanout.Map. The outputs come back in job
// order: CFD i's chunks are chunks[first[i]:first[i+1]], in group
// order, so concatenating them reproduces the serial traversal.
func scanChunks[T any](r *relation.Relation, set *Set, cache *relation.IndexCache, workers int,
	scan func(r *relation.Relation, c *CFD, pli *relation.PLI, lo, hi int, prep cfdPrep) []T,
) (chunks [][]T, first []int, err error) {
	workers = fanout.Workers(workers)
	type job struct {
		c      *CFD
		pli    *relation.PLI
		prep   cfdPrep
		lo, hi int
	}
	var jobs []job
	first = make([]int, 0, len(set.cfds)+1)
	for _, c := range set.cfds {
		if !r.Schema().Equal(c.schema) {
			return nil, nil, fmt.Errorf("cfd: detecting %s over relation %s with schema %s",
				c.name, r.Schema().Name(), c.schema.Name())
		}
		first = append(first, len(jobs))
		pli := cache.Get(r, c.lhs)
		prep := newPrep(r, c)
		for _, g := range groupChunks(pli.NumGroups(), workers) {
			jobs = append(jobs, job{c, pli, prep, g[0], g[1]})
		}
	}
	first = append(first, len(jobs))
	return fanout.Map(len(jobs), workers, func(k int) []T {
		j := jobs[k]
		return scan(r, j.c, j.pli, j.lo, j.hi, j.prep)
	}), first, nil
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
