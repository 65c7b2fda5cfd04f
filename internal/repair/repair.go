// Package repair implements cost-based data repairing for CFDs,
// following Cong, Fan, Geerts, Jia and Ma ("Improving data quality:
// consistency and accuracy", VLDB 2007) — the algorithm behind the
// repairing facility of the Semandaq system presented in §5 of the
// tutorial: "given a set of cfds and a dirty database, it finds a
// candidate repair that minimally differs from the original data and
// satisfies the cfds".
//
// The repair model modifies attribute values only (no tuple insertions
// or deletions). The central data structure is the set of equivalence
// classes of cells: cells in the same class must end up with the same
// value. Resolving a variable violation merges the classes of the
// disagreeing right-hand-side cells; resolving a constant violation
// either binds the class to the required constant or, when that is
// impossible, moves the tuple out of the pattern's scope. Each class is
// finally assigned the value minimizing the weighted edit-distance cost
// against the original data.
//
// Termination is guaranteed: classes only grow (at most one merge per
// cell pair) and class targets only escalate unset → constant → fresh,
// so the pass loop reaches a fixpoint; the pass limit is a safety net
// that turns a logic error into a reported error instead of a hang.
package repair

import (
	"fmt"
	"slices"

	"semandaq/internal/cfd"
	"semandaq/internal/relation"
	"semandaq/internal/similarity"
)

// WeightFn gives the confidence weight of a cell; repairs prefer
// changing low-weight cells. The default weight is 1 for every cell.
type WeightFn func(tid, attr int) float64

// Options configures the repair algorithms.
type Options struct {
	// Weights is the cell-confidence function (default: uniform 1).
	Weights WeightFn
	// MaxPasses bounds the detect-resolve loop (default 64).
	MaxPasses int
	// ExactValueSelection bounds the class size up to which the
	// cost-minimizing representative is computed exactly (weighted
	// edit-distance medoid); larger classes use the weighted mode.
	// Default 24.
	ExactValueSelection int
}

func (o Options) withDefaults() Options {
	if o.Weights == nil {
		o.Weights = func(int, int) float64 { return 1 }
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 64
	}
	if o.ExactValueSelection == 0 {
		o.ExactValueSelection = 24
	}
	return o
}

// Change records one cell modification made by a repair.
type Change struct {
	TID  int
	Attr int
	From relation.Value
	To   relation.Value
}

// Result is the outcome of a repair run.
type Result struct {
	// Repaired is the repaired relation (a fresh copy; the input is not
	// modified).
	Repaired *relation.Relation
	// Changes lists every modified cell, sorted by (TID, Attr).
	Changes []Change
	// Cost is the total weighted edit-distance cost of the changes.
	Cost float64
	// Passes is the number of detect-resolve passes used.
	Passes int
}

// cellTarget escalates unset → constant → fresh. Fresh means "some value
// distinct from every constant in Σ and the active domain", used when a
// class is forced to two different constants, and materialized as a
// tagged placeholder value.
type cellTarget struct {
	kind  targetKind
	value relation.Value
}

type targetKind uint8

const (
	targetUnset targetKind = iota
	targetConst
	targetFresh
)

// Batch runs the BatchRepair algorithm: it repairs the whole relation
// against the CFD set and returns a repaired copy satisfying the set
// (or an error when the set is unsatisfiable on the data's schema).
func Batch(r *relation.Relation, set *cfd.Set, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if !r.Schema().Equal(set.Schema()) {
		return nil, fmt.Errorf("repair: relation %s does not match constraint schema %s",
			r.Schema().Name(), set.Schema().Name())
	}
	arity := r.Schema().Arity()
	n := r.Len() * arity
	uf := newUnionFind(n)
	targets := make(map[int]cellTarget)
	freshCounter := 0

	work := r.Clone()
	orig := r // original values for cost computation

	cellID := func(tid, attr int) int { return tid*arity + attr }

	// touched lists the cells the violation loop has merged, bound or
	// broken out of a pattern's scope: the only cells whose class value
	// can differ from orig. Every other cell is a singleton class without
	// a target and keeps the value work cloned from r, so a pass costs
	// O(touched), not O(n).
	var touched []int
	isTouched := make([]uint64, (n+63)/64)
	touch := func(cell int) {
		if w, bit := cell>>6, uint64(1)<<(cell&63); isTouched[w]&bit == 0 {
			isTouched[w] |= bit
			touched = append(touched, cell)
		}
	}

	// setConst binds the class of cell to a constant; on conflict with a
	// different constant the class escalates to fresh.
	setConst := func(cell int, v relation.Value) {
		touch(cell)
		root := uf.find(cell)
		t := targets[root]
		switch t.kind {
		case targetUnset:
			targets[root] = cellTarget{targetConst, v}
		case targetConst:
			if !t.value.Identical(v) {
				freshCounter++
				targets[root] = cellTarget{targetFresh, freshValue(r.Schema().Attr(cell%arity).Kind, freshCounter)}
			}
		case targetFresh:
			// stays fresh
		}
	}

	merge := func(a, b int) {
		touch(a)
		touch(b)
		ra, rb := uf.find(a), uf.find(b)
		if ra == rb {
			return
		}
		ta, tb := targets[ra], targets[rb]
		root := uf.union(ra, rb)
		delete(targets, ra)
		delete(targets, rb)
		switch {
		case ta.kind == targetFresh || tb.kind == targetFresh:
			freshCounter++
			targets[root] = cellTarget{targetFresh, freshValue(r.Schema().Attr(a%arity).Kind, freshCounter)}
		case ta.kind == targetConst && tb.kind == targetConst && !ta.value.Identical(tb.value):
			freshCounter++
			targets[root] = cellTarget{targetFresh, freshValue(r.Schema().Attr(a%arity).Kind, freshCounter)}
		case ta.kind == targetConst:
			targets[root] = ta
		case tb.kind == targetConst:
			targets[root] = tb
		default:
			delete(targets, root)
		}
	}

	// materialize writes every touched cell's class value into work.
	// Members are listed in ascending cell id: classValue's exact mode
	// breaks cost ties by member order and sums costs in it.
	members := make(map[int][]int) // root -> touched member cells (rebuilt per pass)
	materialize := func() {
		clear(members)
		slices.Sort(touched)
		for _, cell := range touched {
			root := uf.find(cell)
			members[root] = append(members[root], cell)
		}
		for root, cells := range members {
			var v relation.Value
			if t, ok := targets[root]; ok && t.kind != targetUnset {
				v = t.value
			} else {
				v = classValue(orig, cells, arity, opts)
			}
			for _, cell := range cells {
				work.Set(cell/arity, cell%arity, v)
			}
		}
	}

	detector := cfd.NewDetector(set)
	passes := 0
	for ; passes < opts.MaxPasses; passes++ {
		materialize()
		vs, err := detector.Detect(work)
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			return finish(orig, work, touched, passes+1, opts), nil
		}
		progress := false
		for _, v := range vs {
			switch v.Kind {
			case cfd.VarViolation:
				base := cellID(v.TIDs[0], v.Attr)
				for _, tid := range v.TIDs[1:] {
					if !uf.sameSet(base, cellID(tid, v.Attr)) {
						progress = true
					}
					merge(base, cellID(tid, v.Attr))
				}
			case cfd.ConstViolation:
				// Find the required constant from the violated row.
				c := v.CFD
				rhsIdx := indexOf(c.RHS(), v.Attr)
				pat := c.RowRHS(v.Row)[rhsIdx]
				cell := cellID(v.TIDs[0], v.Attr)
				root := uf.find(cell)
				t := targets[root]
				if t.kind == targetUnset || (t.kind == targetConst && t.value.Identical(pat.Constant())) {
					prev := targets[root]
					setConst(cell, pat.Constant())
					if targets[uf.find(cell)] != prev {
						progress = true
					}
					continue
				}
				// The RHS cell is already bound to a different constant
				// (or fresh): binding it to this row's constant cannot
				// succeed. Resolve by moving the tuple out of the row's
				// scope instead — break a constant LHS pattern (the
				// paper's alternative resolution for constant
				// violations).
				lhs := c.LHS()
				for i, lhsAttr := range lhs {
					lp := c.RowLHS(v.Row)[i]
					if !lp.IsConst() {
						continue
					}
					lcell := cellID(v.TIDs[0], lhsAttr)
					lroot := uf.find(lcell)
					lt := targets[lroot]
					if lt.kind == targetFresh {
						continue // already off-pattern; try another attr
					}
					if lt.kind == targetConst && lt.value.Identical(lp.Constant()) {
						continue // bound to match; cannot break here
					}
					freshCounter++
					touch(lcell)
					targets[lroot] = cellTarget{
						targetFresh,
						freshValue(r.Schema().Attr(lhsAttr).Kind, freshCounter),
					}
					progress = true
					break
				}
			}
		}
		if !progress {
			// Every violation is already fully resolved in the class
			// structure yet still materializes as a violation: the
			// remaining conflicts are between forced constants and
			// pattern scopes (e.g. the fresh value re-enters another
			// pattern). One more materialize handles fresh escalation;
			// if the state is truly stuck the set is unsatisfiable here.
			return nil, fmt.Errorf("repair: no progress after %d passes; the CFD set is likely unsatisfiable on this schema (run cfd.Satisfiable)", passes+1)
		}
	}
	return nil, fmt.Errorf("repair: pass limit %d exceeded", opts.MaxPasses)
}

// finish computes the change list and cost by diffing the touched cells
// (ascending cell id, so Changes come out sorted by (TID, Attr)); no
// other cell can differ from orig.
func finish(orig, work *relation.Relation, touched []int, passes int, opts Options) *Result {
	var changes []Change
	cost := 0.0
	arity := orig.Schema().Arity()
	for _, cell := range touched {
		tid, attr := cell/arity, cell%arity
		from, to := orig.Get(tid, attr), work.Get(tid, attr)
		if from.Identical(to) {
			continue
		}
		changes = append(changes, Change{TID: tid, Attr: attr, From: from, To: to})
		cost += opts.Weights(tid, attr) * valueDistance(from, to)
	}
	return &Result{Repaired: work, Changes: changes, Cost: cost, Passes: passes}
}

// valueDistance is the normalized update cost of the paper: edit
// distance scaled to [0,1] for strings, 0/1 for other kinds.
func valueDistance(from, to relation.Value) float64 {
	if from.Identical(to) {
		return 0
	}
	if from.Kind() == relation.KindString && to.Kind() == relation.KindString {
		return 1 - similarity.LevenshteinSim(from.Str(), to.Str())
	}
	return 1
}

// classValue picks the value for an unforced class: the member value
// minimizing the total weighted distance to all members (exact medoid
// for small classes, weighted mode for large ones).
func classValue(orig *relation.Relation, cells []int, arity int, opts Options) relation.Value {
	return classValueBy(orig.Get, cells, arity, opts)
}

// classValueBy is classValue over an arbitrary original-value getter —
// the in-place IncRepair path reads pre-repair values from a delta
// snapshot instead of a second relation.
func classValueBy(orig func(tid, attr int) relation.Value, cells []int, arity int, opts Options) relation.Value {
	if len(cells) <= opts.ExactValueSelection {
		best := relation.Null()
		bestCost := -1.0
		for _, cand := range cells {
			cv := orig(cand/arity, cand%arity)
			cost := 0.0
			for _, cell := range cells {
				w := opts.Weights(cell/arity, cell%arity)
				cost += w * valueDistance(orig(cell/arity, cell%arity), cv)
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = cv, cost
			}
		}
		return best
	}
	// Weighted mode.
	counts := make(map[string]float64)
	vals := make(map[string]relation.Value)
	for _, cell := range cells {
		v := orig(cell/arity, cell%arity)
		k := string(v.Encode(nil))
		counts[k] += opts.Weights(cell/arity, cell%arity)
		vals[k] = v
	}
	bestK, bestW := "", -1.0
	for k, w := range counts {
		if w > bestW || (w == bestW && k < bestK) {
			bestK, bestW = k, w
		}
	}
	return vals[bestK]
}

// freshValue materializes the i-th fresh placeholder of the given kind.
// String placeholders use a tagged form unlikely to collide with data;
// numeric kinds use large negatives.
func freshValue(kind relation.Kind, i int) relation.Value {
	switch kind {
	case relation.KindInt:
		return relation.Int(int64(-1_000_000_000) - int64(i))
	case relation.KindFloat:
		return relation.Float(float64(-1_000_000_000) - float64(i))
	default:
		return relation.String(fmt.Sprintf("⊥%d", i)) // ⊥i
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// Verify re-detects violations on a repair result, returning an error if
// any remain. Used by tests and by Semandaq after user edits.
func Verify(res *Result, set *cfd.Set) error {
	vs, err := cfd.NewDetector(set).Detect(res.Repaired)
	if err != nil {
		return err
	}
	if len(vs) != 0 {
		return fmt.Errorf("repair: %d violations remain after repair", len(vs))
	}
	return nil
}
