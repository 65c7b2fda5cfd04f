// Package discovery implements CFD discovery (profiling), the "deducing
// and discovering rules for cleaning the data" capability the tutorial
// lists under research on data quality (§2). The algorithms follow the
// two families evaluated in the literature the tutorial spawned (Fan,
// Geerts, Li, Xiong, "Discovering conditional functional dependencies",
// ICDE 2009/TKDE 2011):
//
//   - constant CFD mining in the style of CFDMiner: minimal constant
//     patterns (X = x̄ → A = a) derived from free/closed itemset pairs
//     with a support threshold;
//   - variable CFD discovery in the style of CTANE: level-wise TANE-like
//     search over attribute-set lattices, extended with single-attribute
//     conditions that make a failing FD hold on a pattern's scope.
//
// Every discovered CFD is guaranteed to (a) hold on the input relation
// and (b) meet the support threshold; tests enforce both as properties.
package discovery

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"semandaq/internal/cfd"
	"semandaq/internal/pattern"
	"semandaq/internal/relation"
)

// Options configures discovery.
type Options struct {
	// MinSupport is the minimum number of tuples a pattern's scope must
	// contain (default 2).
	MinSupport int
	// MaxLHS bounds the number of LHS attributes explored (default 3).
	MaxLHS int
	// Cache supplies the PLI partition cache the lattice walk runs on.
	// Passing a long-lived cache (e.g. an engine session's per-dataset
	// cache, shared with detection) makes repeated discovery over
	// unchanged data partition-free; nil uses a private per-call cache.
	Cache *relation.IndexCache
	// Workers fans the independent per-set refinements of each lattice
	// level out over this many goroutines (the cache is concurrency-
	// safe); 0 or 1 walks serially. The output is byte-identical either
	// way: per-set results are reduced in lexicographic order, and the
	// minimality/generalization pruning only ever consults strictly
	// smaller attribute sets, which are settled before a level starts.
	// engine.Session.Discover defaults this to the session's worker
	// pool (runtime.NumCPU()).
	Workers int
	// Shards is the PLI build fan-out applied to the PRIVATE cache a
	// nil Cache creates: each cold partition build or refinement of the
	// lattice walk runs as a TID-range-parallel counting sort across
	// this many shards (relation.IndexCache.SetShards; byte-identical
	// to serial). A caller-supplied Cache keeps its own setting — an
	// engine session's cache is configured by the session.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 3
	}
	if o.Cache == nil {
		o.Cache = relation.NewIndexCache()
		if o.Shards != 0 {
			o.Cache.SetShards(o.Shards)
		}
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// mapLevel applies fn to every attribute set of one lattice level,
// fanning the independent computations over workers goroutines.
// Results come back indexed by position, so callers reduce them in
// deterministic lexicographic order regardless of scheduling;
// workers <= 1 degrades to the plain serial loop.
func mapLevel[T any](sets [][]int, workers int, fn func(x []int) T) []T {
	out := make([]T, len(sets))
	if workers > len(sets) {
		workers = len(sets)
	}
	if workers <= 1 {
		for i, x := range sets {
			out[i] = fn(x)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sets) {
					return
				}
				out[i] = fn(sets[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// warmLevel materializes a level's own partitions (parallel GetVia)
// before the per-set probes run, so every deeper probe — whose
// refinement parent may be a lexicographic sibling, not the probing set
// itself — finds that parent cached regardless of worker scheduling.
// This keeps the parallel walk's from-scratch builds bounded by the
// arity, exactly like the serial walk.
func warmLevel(r *relation.Relation, cache *relation.IndexCache, sets [][]int, workers int) {
	mapLevel(sets, workers, func(x []int) struct{} {
		cache.GetVia(r, x)
		return struct{}{}
	})
}

// latticeLevels splits the level-wise subset enumeration into its
// levels (size-1 sets, then size-2 sets, ...), each in lexicographic
// order — the barrier unit of the parallel walk.
func latticeLevels(n, k int) [][][]int {
	var out [][][]int
	for _, x := range subsetsUpTo(n, k) {
		if len(out) < len(x) {
			out = append(out, nil)
		}
		out[len(x)-1] = append(out[len(x)-1], x)
	}
	return out
}

// FDs discovers the minimal plain functional dependencies X → A with
// |X| ≤ MaxLHS that hold on r, using TANE-style level-wise partition
// refinement: X → A holds iff the partition of r by X has as many groups
// as the partition by X∪{A}.
//
// Partitions come from Options.Cache via IndexCache.GetVia, so the walk
// intersects each level-k partition out of its level-(k-1) prefix
// instead of re-partitioning the relation per lattice node: because
// subsetsUpTo enumerates sets level-wise and lexicographically, every
// sorted set X∪{A} is first requested exactly when X is its length-|X|
// prefix, making the whole lattice cost |R| single builds plus one
// counting-sort refinement per node.
func FDs(r *relation.Relation, opts Options) ([]*cfd.CFD, error) {
	opts = opts.withDefaults()
	arity := r.Schema().Arity()
	if r.Len() == 0 {
		return nil, nil
	}

	groupsOf := func(attrs []int) int {
		return opts.Cache.GetVia(r, attrs).NumGroups()
	}

	// minimal[A] holds the discovered minimal LHS sets for RHS attribute A.
	minimal := make(map[int][][]int)
	hasSubsetFD := func(x []int, a int) bool {
		for _, m := range minimal[a] {
			if isSubset(m, x) {
				return true
			}
		}
		return false
	}

	var out []*cfd.CFD
	for _, level := range latticeLevels(arity, opts.MaxLHS) {
		// Phase 1: materialize this level's partitions — a deeper probe
		// below refines one of them, and under parallel scheduling that
		// parent can be a sibling another worker owns.
		warmLevel(r, opts.Cache, level, opts.Workers)
		// Phase 2: the per-set probes are independent within the level
		// (minimal-FD pruning only consults strictly smaller LHS sets —
		// two same-size sets can never be subsets of each other), so fan
		// them out and reduce in lexicographic order.
		holds := mapLevel(level, opts.Workers, func(x []int) []int {
			gx := groupsOf(x)
			var as []int
			for a := 0; a < arity; a++ {
				if contains(x, a) || hasSubsetFD(x, a) {
					continue
				}
				xa := append(append([]int(nil), x...), a)
				sort.Ints(xa)
				if gx == groupsOf(xa) {
					as = append(as, a)
				}
			}
			return as
		})
		for i, x := range level {
			for _, a := range holds[i] {
				minimal[a] = append(minimal[a], append([]int(nil), x...))
				c, err := buildFD(r.Schema(), x, a)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// buildFD constructs the plain FD X → A as a CFD with one all-wild row.
func buildFD(schema *relation.Schema, x []int, a int) (*cfd.CFD, error) {
	lhs := make([]string, len(x))
	for i, idx := range x {
		lhs[i] = schema.Attr(idx).Name
	}
	name := fmt.Sprintf("fd_%s_%s", joinNames(lhs), schema.Attr(a).Name)
	return cfd.New(name, schema, lhs, []string{schema.Attr(a).Name}, nil)
}

// ConstantCFDs mines minimal constant CFDs (X = x̄ → A = 'a') holding on
// r with scope at least MinSupport, in the spirit of CFDMiner: the LHS
// pattern must be "free" — no generalization (dropping one attribute)
// already determines the same constant.
func ConstantCFDs(r *relation.Relation, opts Options) ([]*cfd.CFD, error) {
	opts = opts.withDefaults()
	arity := r.Schema().Arity()
	if r.Len() == 0 {
		return nil, nil
	}

	// discovered[g] for generalization pruning: key is
	// (sorted X, encoded x̄ values, A, encoded a).
	type ruleKey struct {
		attrs string
		vals  string
		rhs   int
		rhsV  string
	}
	emitted := map[ruleKey]bool{}
	generalizes := func(x []int, vals relation.Tuple, a int, av relation.Value) bool {
		// Does some emitted rule with X' ⊂ X, consistent values, same RHS
		// exist? We only need to check direct generalizations because
		// emission is level-wise (smaller X first).
		for drop := range x {
			sub := make([]int, 0, len(x)-1)
			var subVals relation.Tuple
			for i, idx := range x {
				if i == drop {
					continue
				}
				sub = append(sub, idx)
				subVals = append(subVals, vals[i])
			}
			k := ruleKey{encodeInts(sub), subVals.FullKey(), a, string(av.Encode(nil))}
			if emitted[k] {
				return true
			}
		}
		return false
	}

	// candidate is one minimal constant rule found for a set: X = vals
	// implies attribute a = av.
	type candidate struct {
		vals relation.Tuple
		a    int
		av   relation.Value
	}
	var out []*cfd.CFD
	for _, level := range latticeLevels(arity, opts.MaxLHS) {
		warmLevel(r, opts.Cache, level, opts.Workers)
		// Per-set mining is independent within a level: the
		// generalization pruning only consults emitted rules over
		// strictly smaller sets (a direct generalization drops one
		// attribute), and emitted is only written at the level barrier
		// below — so workers read a settled map.
		found := mapLevel(level, opts.Workers, func(x []int) []candidate {
			pli := opts.Cache.GetVia(r, x)
			var cands []candidate
			// PLI groups arrive in sorted encoded-key order — exactly the
			// FullKey order the legacy path sorted into — so iteration is
			// already deterministic and reproducible.
			for gi := 0; gi < pli.NumGroups(); gi++ {
				tids := pli.Group(gi)
				if len(tids) < opts.MinSupport || slices.ContainsFunc(x, func(b int) bool { return r.Get(tids[0], b).IsNull() }) {
					continue // constant patterns cannot express NULL
				}
				var vals relation.Tuple // the group's X values, read once some attribute is uniform
				for a := 0; a < arity; a++ {
					if contains(x, a) {
						continue
					}
					av := r.Get(tids[0], a)
					if av.IsNull() {
						continue
					}
					uniform := true
					for _, tid := range tids[1:] {
						if !r.Get(tid, a).Identical(av) {
							uniform = false
							break
						}
					}
					if !uniform {
						continue
					}
					if vals == nil {
						vals = make(relation.Tuple, len(x))
						for i, b := range x {
							vals[i] = r.Get(tids[0], b)
						}
					}
					if generalizes(x, vals, a, av) {
						continue
					}
					cands = append(cands, candidate{vals, a, av})
				}
			}
			return cands
		})
		for i, x := range level {
			for _, cand := range found[i] {
				k := ruleKey{encodeInts(x), cand.vals.FullKey(), cand.a, string(cand.av.Encode(nil))}
				emitted[k] = true
				c, err := buildConstantCFD(r.Schema(), x, cand.vals, cand.a, cand.av)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

func buildConstantCFD(schema *relation.Schema, x []int, vals relation.Tuple, a int, av relation.Value) (*cfd.CFD, error) {
	lhs := make([]string, len(x))
	row := make(pattern.Row, 0, len(x)+1)
	for i, idx := range x {
		lhs[i] = schema.Attr(idx).Name
		row = append(row, pattern.Const(vals[i]))
	}
	row = append(row, pattern.Const(av))
	name := fmt.Sprintf("ccfd_%s_%s", joinNames(lhs), schema.Attr(a).Name)
	return cfd.New(name, schema, lhs, []string{schema.Attr(a).Name}, pattern.Tableau{row})
}

// VariableCFDs discovers conditional (variable) CFDs in the CTANE style:
// for embedded FDs X → A that fail on the whole relation, it searches
// single-attribute conditions B = b (B ∈ X) under which the FD holds
// with support ≥ MinSupport. Plain FDs that hold globally are reported
// by FDs and skipped here.
func VariableCFDs(r *relation.Relation, opts Options) ([]*cfd.CFD, error) {
	opts = opts.withDefaults()
	arity := r.Schema().Arity()
	if r.Len() == 0 {
		return nil, nil
	}

	// rule is one conditional CFD found for a set: X → a holds on the
	// scopes described by rows (constants on one conditioning attribute).
	type rule struct {
		a    int
		rows []pattern.Row
	}
	var out []*cfd.CFD
	for _, level := range latticeLevels(arity, opts.MaxLHS) {
		if len(level) == 0 || len(level[0]) < 2 {
			continue // a condition needs one attr, the FD another
		}
		warmLevel(r, opts.Cache, level, opts.Workers)
		found := mapLevel(level, opts.Workers, func(x []int) []rule {
			pliX := opts.Cache.GetVia(r, x)
			var rules []rule
			for a := 0; a < arity; a++ {
				if contains(x, a) {
					continue
				}
				xa := append(append([]int(nil), x...), a)
				sort.Ints(xa)
				if pliX.NumGroups() == opts.Cache.GetVia(r, xa).NumGroups() {
					continue // holds globally: a plain FD, not a conditional one
				}
				// Try conditioning on each attribute of X.
				for _, b := range x {
					rows := conditionalRows(r, opts.Cache, pliX, x, a, b, opts.MinSupport)
					if len(rows) == 0 {
						continue
					}
					rules = append(rules, rule{a, rows})
				}
			}
			return rules
		})
		for i, x := range level {
			for _, ru := range found[i] {
				c, err := buildVariableCFD(r.Schema(), x, ru.a, ru.rows)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// conditionalRows finds the values b of attribute cond such that X → A
// holds on σ_{cond=b}(r) with at least minSupport tuples, returning the
// pattern rows (constant on cond, wildcards elsewhere). pliX is the
// cached partition of r by X; X-group membership inside each scope comes
// from PLI.GroupOf instead of re-encoding string keys per tuple.
func conditionalRows(r *relation.Relation, cache *relation.IndexCache, pliX *relation.PLI, x []int, a, cond, minSupport int) []pattern.Row {
	// Partition by cond, then test the FD within each part. PLI group
	// order is sorted encoded-key order, matching the legacy key sort.
	byCond := cache.GetVia(r, []int{cond})
	type candidate struct {
		val  relation.Value
		tids []int
	}
	var cands []candidate
	for g := 0; g < byCond.NumGroups(); g++ {
		tids := byCond.Group(g)
		if len(tids) >= minSupport {
			v := r.Get(tids[0], cond)
			if !v.IsNull() {
				cands = append(cands, candidate{v, tids})
			}
		}
	}

	codesA := r.ColumnCodes(a)
	var rows []pattern.Row
	first := map[int32]int{} // X-group -> first scope member, per candidate
	for _, cand := range cands {
		// Check X → A within the scope: every X-group of the scope must
		// agree on A. Codes decide the fast path; unequal codes (possibly
		// Identical across mixed kinds) and NaN fall back to the exact
		// value comparison against the group's first member, preserving
		// the legacy semantics.
		//
		// Trivial scopes are rejected too: if every X-group in scope is a
		// singleton the FD holds vacuously, so at least one group must
		// have 2+ members for the rule to be supported by evidence.
		clear(first)
		holds, supported := true, false
		for _, tid := range cand.tids {
			g := pliX.GroupOf(tid)
			ft, ok := first[int32(g)]
			if !ok {
				first[int32(g)] = tid
				continue
			}
			supported = true
			if codesA[tid] == codesA[ft] && !r.Get(ft, a).IsNaN() {
				continue
			}
			if !r.Get(ft, a).Identical(r.Get(tid, a)) {
				holds = false
				break
			}
		}
		if !holds || !supported {
			continue
		}
		row := make(pattern.Row, 0, len(x)+1)
		for _, idx := range x {
			if idx == cond {
				row = append(row, pattern.Const(cand.val))
			} else {
				row = append(row, pattern.Wild())
			}
		}
		row = append(row, pattern.Wild())
		rows = append(rows, row)
	}
	return rows
}

func buildVariableCFD(schema *relation.Schema, x []int, a int, rows []pattern.Row) (*cfd.CFD, error) {
	lhs := make([]string, len(x))
	for i, idx := range x {
		lhs[i] = schema.Attr(idx).Name
	}
	name := fmt.Sprintf("vcfd_%s_%s", joinNames(lhs), schema.Attr(a).Name)
	return cfd.New(name, schema, lhs, []string{schema.Attr(a).Name}, pattern.Tableau(rows))
}

// Discover runs all three discovery passes and returns the union. The
// passes share one partition cache (Options.Cache, defaulted here), so
// the lattice partitions FDs builds are reused by the constant and
// variable passes.
func Discover(r *relation.Relation, opts Options) ([]*cfd.CFD, error) {
	opts = opts.withDefaults()
	fds, err := FDs(r, opts)
	if err != nil {
		return nil, err
	}
	consts, err := ConstantCFDs(r, opts)
	if err != nil {
		return nil, err
	}
	vars, err := VariableCFDs(r, opts)
	if err != nil {
		return nil, err
	}
	out := append(fds, consts...)
	return append(out, vars...), nil
}

// subsetsUpTo enumerates the non-empty subsets of {0..n-1} with size ≤ k,
// ordered by size then lexicographically (level-wise order).
func subsetsUpTo(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == k {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func isSubset(sub, super []int) bool {
	for _, s := range sub {
		if !contains(super, s) {
			return false
		}
	}
	return true
}

func encodeInts(xs []int) string {
	b := make([]byte, 0, len(xs)*3)
	for _, x := range xs {
		b = append(b, byte(x), ',')
	}
	return string(b)
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "_"
		}
		out += n
	}
	return out
}
