package repair

import (
	"fmt"
	"slices"
	"sort"

	"semandaq/internal/cfd"
	"semandaq/internal/relation"
)

// Inc runs the IncRepair algorithm of Cong et al. (VLDB 2007): given a
// relation whose prefix (every tuple NOT listed in deltaTIDs) already
// satisfies the CFD set, it repairs only the delta tuples so that the
// whole relation satisfies the set. The base tuples are treated as
// authoritative and are never modified — the defining property that
// makes IncRepair cheap for small deltas (experiment E6). The input
// relation is not modified; the result holds a repaired copy. Service
// paths that own their relation use IncInPlace and skip the copy.
//
// Resolution rules per violation kind:
//
//   - a variable violation in a group containing base tuples binds the
//     delta cells to the base group's value;
//   - a variable violation among delta tuples only is resolved like
//     BatchRepair (class merge, cost-minimizing value);
//   - a constant violation on a delta tuple binds the cell to the
//     required constant, or moves the tuple out of the pattern scope
//     when the cell is already bound otherwise.
func Inc(r *relation.Relation, set *cfd.Set, deltaTIDs []int, opts Options) (*Result, error) {
	return IncInPlace(r.Clone(), set, deltaTIDs, opts, nil)
}

// IncInPlace is IncRepair without the defensive copy: it writes repaired
// values directly into the delta cells of r (base tuples are still never
// modified) and runs its per-pass incremental detection on the caller's
// PLI cache, so a session's partitions survive the append→repair cycle —
// stale-only-by-appends indexes are advanced (IndexCache.GetDelta), not
// rebuilt. Result.Repaired is r itself. A nil cache uses a private one.
//
// On error the delta cells may hold partially repaired values; callers
// that appended the delta roll back with Relation.Truncate (as
// engine.Session.Append does).
func IncInPlace(r *relation.Relation, set *cfd.Set, deltaTIDs []int, opts Options, cache *relation.IndexCache) (*Result, error) {
	if err := checkDelta(r, set, deltaTIDs); err != nil {
		return nil, err
	}
	if cache == nil {
		cache = relation.NewIndexCache()
	}
	tids := slices.Clone(deltaTIDs)
	slices.Sort(tids)
	tids = slices.Compact(tids)
	// Snapshot the delta cells' original codes: only delta cells are ever
	// written and a code's value never changes, so this is all the repair
	// needs for cost computation and the change list.
	arity := r.Schema().Arity()
	snap := make([]int32, len(tids)*arity)
	for i, tid := range tids {
		for a := 0; a < arity; a++ {
			snap[i*arity+a] = r.Code(tid, a)
		}
	}
	orig := func(tid, attr int) relation.Value {
		if i, ok := slices.BinarySearch(tids, tid); ok {
			return r.CodeValue(attr, snap[i*arity+attr])
		}
		return r.Get(tid, attr)
	}
	return incRun(r, orig, set, tids, opts, cache)
}

func checkDelta(r *relation.Relation, set *cfd.Set, deltaTIDs []int) error {
	if !r.Schema().Equal(set.Schema()) {
		return fmt.Errorf("repair: relation %s does not match constraint schema %s",
			r.Schema().Name(), set.Schema().Name())
	}
	for _, tid := range deltaTIDs {
		if tid < 0 || tid >= r.Len() {
			return fmt.Errorf("repair: delta TID %d out of range", tid)
		}
	}
	return nil
}

// incRun is the shared IncRepair loop: work is mutated in place (delta
// cells only, tids ascending and distinct), orig supplies the pre-repair
// values of every cell, and cache serves the per-CFD X-partitions across
// passes.
func incRun(work *relation.Relation, orig func(tid, attr int) relation.Value, set *cfd.Set, tids []int, opts Options, cache *relation.IndexCache) (*Result, error) {
	opts = opts.withDefaults()
	isDelta := make(map[int]bool, len(tids))
	for _, tid := range tids {
		isDelta[tid] = true
	}

	arity := work.Schema().Arity()

	// Cell classes restricted to delta cells; base cells are constants.
	// We key the union-find by delta cell ids mapped densely, in
	// ascending (TID, attr) order: materialize lists a class's members in
	// that order, so a cost tie goes to the lowest cell, as in Batch.
	deltaIdx := make(map[int]int, len(tids)*arity) // cellID -> dense id
	var denseCells []int
	cellID := func(tid, attr int) int { return tid*arity + attr }
	for _, tid := range tids {
		for a := 0; a < arity; a++ {
			deltaIdx[cellID(tid, a)] = len(denseCells)
			denseCells = append(denseCells, cellID(tid, a))
		}
	}
	uf := newUnionFind(len(denseCells))
	targets := make(map[int]cellTarget)
	freshCounter := 0

	setConst := func(dense int, v relation.Value, kind relation.Kind) bool {
		root := uf.find(dense)
		t := targets[root]
		switch t.kind {
		case targetUnset:
			targets[root] = cellTarget{targetConst, v}
			return true
		case targetConst:
			if !t.value.Identical(v) {
				freshCounter++
				targets[root] = cellTarget{targetFresh, freshValue(kind, freshCounter)}
				return true
			}
			return false
		default:
			return false
		}
	}

	// materialize writes every class value into work. The base-tuple
	// guard is the algorithm's contract made explicit: IncRepair may
	// write delta cells ONLY — especially load-bearing now that work can
	// be a session's live relation (IncInPlace), where a stray base
	// write would silently corrupt data no rollback removes. Classes are
	// written in the order of their lowest cell, so the patch journal,
	// and everything downstream of it, is the same on every run.
	materialize := func() error {
		members := make(map[int][]int)
		var roots []int
		for dense := range denseCells {
			root := uf.find(dense)
			if members[root] == nil {
				roots = append(roots, root)
			}
			members[root] = append(members[root], dense)
		}
		for _, root := range roots {
			cells := members[root]
			t := targets[root]
			var v relation.Value
			switch {
			case t.kind != targetUnset:
				v = t.value
			default:
				cellIDs := make([]int, len(cells))
				for i, dense := range cells {
					cellIDs[i] = denseCells[dense]
				}
				v = classValueBy(orig, cellIDs, arity, opts)
			}
			for _, dense := range cells {
				c := denseCells[dense]
				if !isDelta[c/arity] {
					return fmt.Errorf("repair: internal: IncRepair attempted to modify base tuple %d", c/arity)
				}
				work.Set(c/arity, c%arity, v)
			}
		}
		return nil
	}

	// One index cache across all passes: materialize only rewrites delta
	// cells whose value actually changes, so X-partitions over columns the
	// repair never touches stay fresh — and when the delta was appended to
	// a warm session, GetDelta absorbs it into the existing partitions
	// instead of rebuilding them. Even a partition keyed on a column the
	// repair DOES write (chained constraints, where one rule's RHS is
	// another's LHS) survives: each Set lands in the column's patch
	// journal and the next GetDelta drains it into the cached PLI as a
	// per-cell group move (PLI.patch), so multi-pass repairs never
	// counting-sort anything from scratch.
	passes := 0
	for ; passes < opts.MaxPasses; passes++ {
		if err := materialize(); err != nil {
			return nil, err
		}
		// Only violations touching delta tuples matter: the base is
		// consistent by precondition and never modified.
		var vs []cfd.Violation
		for _, c := range set.All() {
			pli := cache.GetDelta(work, c.LHS())
			vs = append(vs, cfd.IncDetect(work, c, pli, tids)...)
		}
		if len(vs) == 0 {
			return finishDelta(work, orig, tids, passes+1, opts), nil
		}
		progress := false
		for _, v := range vs {
			switch v.Kind {
			case cfd.VarViolation:
				// Split the group into base and delta members.
				var base []int
				var delta []int
				for _, tid := range v.TIDs {
					if isDelta[tid] {
						delta = append(delta, tid)
					} else {
						base = append(base, tid)
					}
				}
				if len(base) > 0 {
					// The base members of a group must already agree — if
					// they don't, the precondition (clean base) is broken
					// and IncRepair cannot proceed without editing it.
					bv := work.Get(base[0], v.Attr)
					for _, tid := range base[1:] {
						if !work.Get(tid, v.Attr).Identical(bv) {
							return nil, fmt.Errorf(
								"repair: base tuples %v disagree on %s under %s — the base must satisfy the set before IncRepair",
								base, work.Schema().Attr(v.Attr).Name, v.CFD.Name())
						}
					}
					// Bind every delta cell to the base value.
					for _, tid := range delta {
						dense := deltaIdx[cellID(tid, v.Attr)]
						if setConst(dense, bv, work.Schema().Attr(v.Attr).Kind) {
							progress = true
						}
					}
					continue
				}
				// Delta-only group: merge classes.
				first := deltaIdx[cellID(delta[0], v.Attr)]
				for _, tid := range delta[1:] {
					dense := deltaIdx[cellID(tid, v.Attr)]
					if !uf.sameSet(first, dense) {
						progress = true
					}
					root1, root2 := uf.find(first), uf.find(dense)
					t1, t2 := targets[root1], targets[root2]
					root := uf.union(root1, root2)
					delete(targets, root1)
					delete(targets, root2)
					switch {
					case t1.kind == targetFresh || t2.kind == targetFresh ||
						(t1.kind == targetConst && t2.kind == targetConst && !t1.value.Identical(t2.value)):
						freshCounter++
						targets[root] = cellTarget{targetFresh, freshValue(work.Schema().Attr(v.Attr).Kind, freshCounter)}
					case t1.kind == targetConst:
						targets[root] = t1
					case t2.kind == targetConst:
						targets[root] = t2
					}
				}
			case cfd.ConstViolation:
				tid := v.TIDs[0]
				if !isDelta[tid] {
					return nil, fmt.Errorf("repair: base tuple %d violates %s — the base must satisfy the set before IncRepair", tid, v.CFD.Name())
				}
				c := v.CFD
				rhsIdx := indexOf(c.RHS(), v.Attr)
				pat := c.RowRHS(v.Row)[rhsIdx]
				dense := deltaIdx[cellID(tid, v.Attr)]
				root := uf.find(dense)
				t := targets[root]
				if t.kind == targetUnset || (t.kind == targetConst && t.value.Identical(pat.Constant())) {
					if setConst(dense, pat.Constant(), work.Schema().Attr(v.Attr).Kind) {
						progress = true
					}
					continue
				}
				// Move out of scope via a constant LHS pattern.
				for i, lhsAttr := range c.LHS() {
					lp := c.RowLHS(v.Row)[i]
					if !lp.IsConst() {
						continue
					}
					ldense := deltaIdx[cellID(tid, lhsAttr)]
					lroot := uf.find(ldense)
					lt := targets[lroot]
					if lt.kind == targetFresh || (lt.kind == targetConst && lt.value.Identical(lp.Constant())) {
						continue
					}
					freshCounter++
					targets[lroot] = cellTarget{targetFresh, freshValue(work.Schema().Attr(lhsAttr).Kind, freshCounter)}
					progress = true
					break
				}
			}
		}
		if !progress {
			return nil, fmt.Errorf("repair: IncRepair made no progress after %d passes", passes+1)
		}
	}
	return nil, fmt.Errorf("repair: IncRepair pass limit %d exceeded", opts.MaxPasses)
}

// finishDelta computes the change list and cost by scanning the delta
// cells only (tids: ascending, distinct) — IncRepair never modifies base
// cells, so the scan is exhaustive. Changes come out sorted by (TID,
// Attr) like finish's.
func finishDelta(work *relation.Relation, orig func(tid, attr int) relation.Value, tids []int, passes int, opts Options) *Result {
	arity := work.Schema().Arity()
	var changes []Change
	cost := 0.0
	for _, tid := range tids {
		for attr := 0; attr < arity; attr++ {
			from, to := orig(tid, attr), work.Get(tid, attr)
			if from.Identical(to) {
				continue
			}
			changes = append(changes, Change{TID: tid, Attr: attr, From: from, To: to})
			cost += opts.Weights(tid, attr) * valueDistance(from, to)
		}
	}
	return &Result{Repaired: work, Changes: changes, Cost: cost, Passes: passes}
}

// AppendAndRepair is the one-shot IncRepair entry point: append the
// delta tuples to a (copy of the) clean base relation and repair just
// the delta. It returns the repaired combined relation and the result;
// base is not modified. Long-lived sessions append into their own
// relation and call IncInPlace instead, which is what keeps their PLI
// cache warm (engine.Session.Append).
func AppendAndRepair(base *relation.Relation, delta []relation.Tuple, set *cfd.Set, opts Options) (*Result, error) {
	combined := base.Clone()
	deltaTIDs := make([]int, 0, len(delta))
	for _, t := range delta {
		tid, err := combined.Insert(t)
		if err != nil {
			return nil, err
		}
		deltaTIDs = append(deltaTIDs, tid)
	}
	return IncInPlace(combined, set, deltaTIDs, opts, nil)
}

// ChangedTIDs extracts the sorted distinct TIDs touched by a result.
func ChangedTIDs(res *Result) []int {
	seen := map[int]bool{}
	for _, ch := range res.Changes {
		seen[ch.TID] = true
	}
	out := make([]int, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}
