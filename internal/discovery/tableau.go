package discovery

import (
	"fmt"

	"semandaq/internal/cfd"
	"semandaq/internal/pattern"
	"semandaq/internal/relation"
)

// This file implements pattern-tableau generation for a given embedded
// FD, following Golab, Karloff, Korn, Srivastava and Yu, "On generating
// near-optimal tableaux for conditional functional dependencies"
// (VLDB 2008 — the same proceedings as the tutorial). Given X → A and a
// relation, the task is to pick pattern rows whose scopes are large
// (support) and on which the FD nearly holds (confidence), covering as
// much of the data as possible. The problem is NP-hard; the greedy
// set-cover strategy used here is the paper's approximation.

// TableauOptions configures tableau generation.
type TableauOptions struct {
	// MinSupport is the minimum fraction of tuples a row's scope must
	// contain (default 0.05).
	MinSupport float64
	// MinConfidence is the minimum confidence of each row: the largest
	// fraction of the row's scope that satisfies the embedded FD after
	// keeping only the plurality A-value of each X-group (default 1.0,
	// i.e. the FD must hold exactly on the scope).
	MinConfidence float64
	// MaxRows bounds the tableau (default 8).
	MaxRows int
	// MaxConstants bounds the number of constant positions per row
	// (default 2) — candidate rows are wildcards with up to this many
	// attribute=constant conditions.
	MaxConstants int
	// Cache supplies the PLI partition cache candidate scopes and
	// confidence grouping run on; nil uses a private per-call cache.
	Cache *relation.IndexCache
}

func (o TableauOptions) withDefaults() TableauOptions {
	if o.MinSupport == 0 {
		o.MinSupport = 0.05
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 1.0
	}
	if o.MaxRows == 0 {
		o.MaxRows = 8
	}
	if o.MaxConstants == 0 {
		o.MaxConstants = 2
	}
	if o.Cache == nil {
		o.Cache = relation.NewIndexCache()
	}
	return o
}

// RowStats describes one generated pattern row.
type RowStats struct {
	Row        pattern.Row // X patterns only
	Support    float64     // |scope| / |r|
	Confidence float64
	NewCover   int // tuples newly covered when the row was picked
}

// GenerateTableau builds a pattern tableau for the embedded FD
// lhsNames → rhsName over r: greedy set cover over candidate rows
// meeting the support and confidence thresholds. It returns the CFD
// (tableau rows have a wildcard RHS) and per-row statistics, in pick
// order.
func GenerateTableau(r *relation.Relation, lhsNames []string, rhsName string, opts TableauOptions) (*cfd.CFD, []RowStats, error) {
	opts = opts.withDefaults()
	schema := r.Schema()
	lhs, err := schema.Indexes(lhsNames...)
	if err != nil {
		return nil, nil, err
	}
	rhsIdx, ok := schema.Index(rhsName)
	if !ok {
		return nil, nil, fmt.Errorf("discovery: schema %s has no attribute %q", schema.Name(), rhsName)
	}
	if r.Len() == 0 {
		return nil, nil, fmt.Errorf("discovery: empty relation")
	}
	minScope := int(opts.MinSupport * float64(r.Len()))
	if minScope < 1 {
		minScope = 1
	}

	// Candidate rows: wildcard row + rows with constants on subsets of X
	// of size ≤ MaxConstants, values drawn from the active domain with
	// sufficient support.
	type candidate struct {
		row   pattern.Row
		scope []int // TIDs matching the row
		conf  float64
	}
	var candidates []candidate

	// Confidence groups each scope by the cached X partition and counts
	// plurality A values by dictionary code — codes coincide with the
	// Encode keys the legacy map grouped on.
	pliLHS := opts.Cache.GetVia(r, lhs)
	rhsCodes := r.ColumnCodes(rhsIdx)
	confidence := func(scope []int) float64 {
		// Group scope by X; keep plurality A per group.
		groups := map[int32]map[int32]int{}
		for _, tid := range scope {
			g := int32(pliLHS.GroupOf(tid))
			if groups[g] == nil {
				groups[g] = map[int32]int{}
			}
			groups[g][rhsCodes[tid]]++
		}
		kept := 0
		for _, counts := range groups {
			best := 0
			for _, c := range counts {
				if c > best {
					best = c
				}
			}
			kept += best
		}
		return float64(kept) / float64(len(scope))
	}

	addCandidate := func(row pattern.Row, scope []int) {
		if len(scope) < minScope {
			return
		}
		conf := confidence(scope)
		if conf+1e-12 < opts.MinConfidence {
			return
		}
		candidates = append(candidates, candidate{row: row, scope: scope, conf: conf})
	}

	// All-wildcard row.
	allTIDs := make([]int, r.Len())
	for i := range allTIDs {
		allTIDs[i] = i
	}
	wildRow := make(pattern.Row, len(lhs))
	addCandidate(wildRow, allTIDs)

	// Constant rows on subsets of X. PLI group order is the sorted-key
	// order the legacy path sorted buckets into.
	for _, sub := range subsetsUpTo(len(lhs), opts.MaxConstants) {
		attrs := make([]int, len(sub))
		for i, pos := range sub {
			attrs[i] = lhs[pos]
		}
		pli := opts.Cache.GetVia(r, attrs)
		type bucket struct {
			tids []int
		}
		var buckets []bucket
		for g := 0; g < pli.NumGroups(); g++ {
			tids := pli.Group(g)
			if len(tids) >= minScope {
				buckets = append(buckets, bucket{tids})
			}
		}
		for _, b := range buckets {
			row := make(pattern.Row, len(lhs))
			nullVal := false
			for i, pos := range sub {
				v := r.Get(b.tids[0], attrs[i])
				if v.IsNull() {
					nullVal = true
					break
				}
				row[pos] = pattern.Const(v)
			}
			if nullVal {
				continue
			}
			addCandidate(row, b.tids)
		}
	}

	// Greedy set cover by marginal new coverage (ties: higher confidence,
	// then more general rows — fewer constants).
	covered := make([]bool, r.Len())
	var rows pattern.Tableau
	var stats []RowStats
	for len(rows) < opts.MaxRows {
		bestIdx, bestNew := -1, 0
		bestConf := 0.0
		bestConsts := 0
		for i, c := range candidates {
			if c.row == nil {
				continue // consumed
			}
			newCover := 0
			for _, tid := range c.scope {
				if !covered[tid] {
					newCover++
				}
			}
			consts := 0
			for _, p := range c.row {
				if p.IsConst() {
					consts++
				}
			}
			better := newCover > bestNew ||
				(newCover == bestNew && newCover > 0 && (c.conf > bestConf ||
					(c.conf == bestConf && consts < bestConsts)))
			if better {
				bestIdx, bestNew, bestConf, bestConsts = i, newCover, c.conf, consts
			}
		}
		if bestIdx < 0 || bestNew == 0 {
			break
		}
		pick := candidates[bestIdx]
		candidates[bestIdx].row = nil
		for _, tid := range pick.scope {
			covered[tid] = true
		}
		fullRow := make(pattern.Row, len(lhs)+1)
		copy(fullRow, pick.row)
		fullRow[len(lhs)] = pattern.Wild()
		rows = append(rows, fullRow)
		stats = append(stats, RowStats{
			Row:        pick.row.Clone(),
			Support:    float64(len(pick.scope)) / float64(r.Len()),
			Confidence: pick.conf,
			NewCover:   bestNew,
		})
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("discovery: no pattern row meets support %.2f and confidence %.2f",
			opts.MinSupport, opts.MinConfidence)
	}
	name := fmt.Sprintf("gen_%s_%s", joinNames(lhsNames), rhsName)
	c, err := cfd.New(name, schema, lhsNames, []string{rhsName}, rows)
	if err != nil {
		return nil, nil, err
	}
	return c, stats, nil
}
