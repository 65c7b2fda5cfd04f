package cfd

import (
	"fmt"
	"sort"

	"semandaq/internal/relation"
)

// DetectNaive is the textbook quadratic detector used as the ablation
// baseline for the grouped algorithm of DetectOne: it checks every tuple
// against every pattern row for constant violations, and every PAIR of
// tuples against every row for variable violations — O(|Tp|·|D|²)
// instead of O(|D| + groups·|Tp|). The reported violation set is
// identical (verified by tests), only the cost differs; benchmark
// BenchmarkAblationGroupedVsNaive quantifies the gap.
func DetectNaive(r *relation.Relation, c *CFD) ([]Violation, error) {
	if !r.Schema().Equal(c.schema) {
		return nil, fmt.Errorf("cfd: detecting %s over relation %s with schema %s",
			c.name, r.Schema().Name(), c.schema.Name())
	}
	nl := len(c.lhs)
	var out []Violation

	rows := r.Tuples()
	// Constant violations: per tuple, per row.
	for tid, t := range rows {
		for rowIdx, row := range c.tableau {
			if !row[:nl].Matches(t, c.lhs) {
				continue
			}
			for j, attr := range c.rhs {
				p := row[nl+j]
				if p.IsConst() && !p.Matches(t[attr]) {
					out = append(out, Violation{
						CFD: c, Row: rowIdx, Kind: ConstViolation,
						Attr: attr, TIDs: []int{tid},
					})
				}
			}
		}
	}

	// Variable violations: per pair, per row; conflicting pairs are
	// accumulated into the same X-group report DetectOne produces.
	type groupKey struct {
		row  int
		attr int
		key  string
	}
	groups := map[groupKey]map[int]bool{}
	for i, ti := range rows {
		for j := i + 1; j < len(rows); j++ {
			tj := rows[j]
			if !ti.EqualOn(tj, c.lhs) {
				continue
			}
			for rowIdx, row := range c.tableau {
				if !row[:nl].Matches(ti, c.lhs) {
					continue
				}
				for k, attr := range c.rhs {
					p := row[nl+k]
					if !p.IsWild() {
						continue
					}
					if !ti[attr].Identical(tj[attr]) {
						gk := groupKey{rowIdx, attr, ti.Key(c.lhs)}
						if groups[gk] == nil {
							groups[gk] = map[int]bool{}
						}
						groups[gk][i] = true
						groups[gk][j] = true
					}
				}
			}
		}
	}
	// A conflicting pair implicates its whole X-group (as DetectOne
	// reports); collect the remaining members.
	for gk, members := range groups {
		var rep relation.Tuple
		for tid := range members {
			rep = rows[tid]
			break
		}
		for tid, t := range rows {
			if !members[tid] && t.EqualOn(rep, c.lhs) {
				members[tid] = true
			}
		}
		tids := make([]int, 0, len(members))
		for tid := range members {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		out = append(out, Violation{
			CFD: c, Row: gk.row, Kind: VarViolation, Attr: gk.attr, TIDs: tids,
		})
	}
	return out, nil
}
