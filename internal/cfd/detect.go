package cfd

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"semandaq/internal/pattern"
	"semandaq/internal/relation"
)

// ViolationKind distinguishes the two ways a CFD can be violated.
type ViolationKind int

const (
	// ConstViolation is a single-tuple violation: the tuple matches a
	// pattern row's LHS but disagrees with a constant in the row's RHS.
	ConstViolation ViolationKind = iota
	// VarViolation is a multi-tuple violation: two or more tuples match a
	// row's LHS, agree on all X attributes, but disagree on a wildcard Y
	// attribute (the embedded FD is violated inside the pattern's scope).
	VarViolation
)

// String names the violation kind.
func (k ViolationKind) String() string {
	if k == ConstViolation {
		return "const"
	}
	return "var"
}

// Violation records one detected CFD violation.
type Violation struct {
	CFD  *CFD
	Row  int // index of the violated tableau row
	Kind ViolationKind
	Attr int   // schema position of the violated Y attribute
	TIDs []int // ConstViolation: one TID; VarViolation: the conflicting X-group, sorted
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s violation of %s (row %d) on %s: tuples %v",
		v.Kind, v.CFD.name, v.Row, v.CFD.schema.Attr(v.Attr).Name, v.TIDs)
}

// Detector detects violations of a CFD set against relations. It caches
// the per-CFD X-partition indexes (PLIs) in a relation.IndexCache keyed
// by attribute set and validated against the relation's column versions,
// so repeated detection over the same (unmutated) relation — and over a
// relation whose edits missed the X columns — rebuilds nothing; see also
// IncDetect for the incremental variant.
type Detector struct {
	set   *Set
	cache *relation.IndexCache
}

// NewDetector creates a detector for the given CFD set with a private
// index cache.
func NewDetector(set *Set) *Detector {
	return &Detector{set: set, cache: relation.NewIndexCache()}
}

// NewDetectorWithCache creates a detector sharing an external index
// cache — the engine wires every detector of a session through the
// session's cache so service requests reuse indexes across calls.
func NewDetectorWithCache(set *Set, cache *relation.IndexCache) *Detector {
	if cache == nil {
		return NewDetector(set)
	}
	return &Detector{set: set, cache: cache}
}

// Detect returns all violations of the detector's CFD set in r: CFD by
// CFD in set order, each CFD's X-groups in PLI order. Violations are
// reported per (CFD, tableau row, Y attribute): constant violations
// once per offending tuple, variable violations once per conflicting
// X-group. It is DetectParallel on the machine's pool.
func (d *Detector) Detect(r *relation.Relation) ([]Violation, error) {
	return d.DetectParallel(r, 0)
}

// DetectOne returns all violations of a single CFD in r.
//
// The algorithm follows the grouping view of TODS 2008: partition r by
// the X attributes once; every tuple in an X-group matches exactly the
// same tableau rows (LHS patterns only mention X), so row matching is
// decided per group. Within a matched group, constants in the row's RHS
// must hold for every tuple (constant violations) and wildcard RHS
// attributes must take a single value (variable violations).
func DetectOne(r *relation.Relation, c *CFD) ([]Violation, error) {
	if !r.Schema().Equal(c.schema) {
		return nil, fmt.Errorf("cfd: detecting %s over relation %s with schema %s",
			c.name, r.Schema().Name(), c.schema.Name())
	}
	pli := relation.BuildPLI(r, c.lhs)
	return DetectGroups(r, c, pli, 0, pli.NumGroups()), nil
}

// rhsConst is the prepared fast path for one constant RHS pattern: the
// column code of the constant, resolved once per detection call so the
// per-tuple check is an int32 comparison instead of a Value comparison.
type rhsConst struct {
	code   int32
	ok     bool // some column value matches the constant
	unique bool // ...and it is the only code that does
}

// lhsRow is the prepared fast path for one tableau row's LHS patterns:
// group-representative matching by int32 code comparisons instead of
// Value comparisons — the per-group cost of the detection scan.
type lhsRow struct {
	// skip: some constant matches no value in its column, so no group
	// can match the row at all.
	skip bool
	// fallback: some constant resolved ambiguously (mixed-kind column);
	// code checks are necessary but not sufficient, confirm with the
	// exact Value semantics.
	fallback bool
	// checks are the uniquely resolved constants: the group matches only
	// if the representative's code at LHS position pos equals code.
	checks []lhsCheck
}

type lhsCheck struct {
	pos  int // index into the CFD's LHS attribute list
	code int32
}

// prepareLHS resolves every constant LHS pattern of c against r's column
// dictionaries, mirroring prepareRHS: a unique resolution turns the
// per-group row-match into code comparisons, a failed resolution rules
// the row out wholesale, and an ambiguous one falls back to
// pattern.Row.Matches (whose semantics the fast path reproduces
// exactly — tests assert byte-identical output vs the legacy scan).
func prepareLHS(r *relation.Relation, c *CFD) []lhsRow {
	out := make([]lhsRow, len(c.tableau))
	for i, row := range c.tableau {
		for j, attr := range c.lhs {
			p := row[j]
			if !p.IsConst() {
				continue
			}
			code, ok, unique := r.LookupCode(attr, p.Constant())
			switch {
			case !ok:
				out[i].skip = true
			case unique:
				out[i].checks = append(out[i].checks, lhsCheck{j, code})
			default:
				out[i].fallback = true
			}
		}
	}
	return out
}

// lhsColumnCodes gathers the code columns of c's LHS attributes.
func lhsColumnCodes(r *relation.Relation, c *CFD) [][]int32 {
	out := make([][]int32, len(c.lhs))
	for j, attr := range c.lhs {
		out[j] = r.ColumnCodes(attr)
	}
	return out
}

// prepareRHS resolves every constant RHS pattern of c against r's column
// dictionaries. prep[row][j] is meaningful only where the pattern is a
// constant.
func prepareRHS(r *relation.Relation, c *CFD) [][]rhsConst {
	nl := len(c.lhs)
	prep := make([][]rhsConst, len(c.tableau))
	for i, row := range c.tableau {
		prep[i] = make([]rhsConst, len(c.rhs))
		for j, attr := range c.rhs {
			if p := row[nl+j]; p.IsConst() {
				code, ok, unique := r.LookupCode(attr, p.Constant())
				prep[i][j] = rhsConst{code: code, ok: ok, unique: unique}
			}
		}
	}
	return prep
}

func isNaNValue(v relation.Value) bool { return v.IsNaN() }

// rhsColumnCodes gathers the code columns of c's RHS attributes.
func rhsColumnCodes(r *relation.Relation, c *CFD) [][]int32 {
	out := make([][]int32, len(c.rhs))
	for j, attr := range c.rhs {
		out[j] = r.ColumnCodes(attr)
	}
	return out
}

// groupVarConflict decides a wildcard-RHS check: does the group disagree
// on attr under Value.Identical? The fast path compares codes (equal
// codes certify agreement except for NaN, which is never Identical to
// itself); when codes cannot certify agreement — unequal codes may still
// be Identical across mixed kinds — it decides exactly. Shared by full
// and incremental detection so their semantics cannot diverge.
func groupVarConflict(r *relation.Relation, codes []int32, tids []int, attr int) bool {
	first := codes[tids[0]]
	agree := true
	for _, tid := range tids[1:] {
		if codes[tid] != first {
			agree = false
			break
		}
	}
	fv := r.Get(tids[0], attr)
	if agree && !isNaNValue(fv) {
		return false
	}
	for _, tid := range tids[1:] {
		if !r.Get(tid, attr).Identical(fv) {
			return true
		}
	}
	return false
}

// rowMatches is pattern.Row.Matches over the relation's cells: does tuple
// tid match row on attrs? It reads each cell through Get, so matching a
// group's representative builds no tuple.
func rowMatches(r *relation.Relation, row pattern.Row, attrs []int, tid int) bool {
	for i, p := range row {
		if !p.Matches(r.Get(tid, attrs[i])) {
			return false
		}
	}
	return true
}

// DetectGroups is the partitioned detection entry point: it detects
// violations of c restricted to the X-groups with indexes in [lo, hi) of
// the PLI over c's LHS. Because every tuple belongs to exactly one
// X-group and group-wise detection never looks outside the group,
// splitting [0, NumGroups) into disjoint ranges and concatenating the
// per-range results in range order reproduces the serial output exactly;
// DetectParallel's chunk jobs are such ranges (scanChunks). (IncDetect
// is a separate loop, not a filter over DetectGroups: its constant-RHS
// reporting is restricted per tuple, not per group.)
//
// The hot path runs on column codes: constant RHS checks compare the
// tuple's code against the pre-resolved constant code, and wildcard RHS
// agreement compares codes pairwise. Both fall back to the exact
// Value.Identical semantics when codes cannot decide (a constant
// matching several codes in a mixed-kind column, a group that actually
// disagrees, or NaN — which is never Identical to itself), so the
// violation list is byte-identical to value-by-value detection.
func DetectGroups(r *relation.Relation, c *CFD, pli *relation.PLI, lo, hi int) []Violation {
	return detectGroupsPrepared(r, c, pli, lo, hi, newPrep(r, c))
}

// cfdPrep bundles the per-CFD constant resolutions and code columns.
// scanChunks resolves them once per CFD, on the caller's goroutine, and
// every chunk job of that CFD reads the same copy.
type cfdPrep struct {
	lhs      []lhsRow
	lhsCodes [][]int32
	rhs      [][]rhsConst
	rhsCodes [][]int32
}

func newPrep(r *relation.Relation, c *CFD) cfdPrep {
	return cfdPrep{
		lhs:      prepareLHS(r, c),
		lhsCodes: lhsColumnCodes(r, c),
		rhs:      prepareRHS(r, c),
		rhsCodes: rhsColumnCodes(r, c),
	}
}

// detectGroupsPrepared is DetectGroups with the per-CFD preparation
// hoisted out. The group loop runs entirely on column codes: row
// matching compares the representative's LHS codes against the
// pre-resolved constants (falling back to exact Value matching only for
// ambiguous mixed-kind resolutions), and the RHS checks work as
// documented on DetectGroups.
func detectGroupsPrepared(r *relation.Relation, c *CFD, pli *relation.PLI, lo, hi int, prep cfdPrep) []Violation {
	var out []Violation
	nl := len(c.lhs)
	for g := lo; g < hi; g++ {
		tids := pli.Group(g)
		if len(tids) == 0 {
			continue
		}
		repTID := tids[0]
		for rowIdx, row := range c.tableau {
			lp := &prep.lhs[rowIdx]
			if lp.skip {
				continue
			}
			matched := true
			for _, chk := range lp.checks {
				if prep.lhsCodes[chk.pos][repTID] != chk.code {
					matched = false
					break
				}
			}
			if !matched {
				continue
			}
			if lp.fallback && !rowMatches(r, row[:nl], c.lhs, repTID) {
				continue
			}
			for j, attr := range c.rhs {
				p := row[nl+j]
				if p.IsConst() {
					ci := prep.rhs[rowIdx][j]
					codes := prep.rhsCodes[j]
					switch {
					case !ci.ok:
						// No value in the column matches the constant:
						// every tuple of the group violates.
						for _, tid := range tids {
							out = append(out, Violation{
								CFD: c, Row: rowIdx, Kind: ConstViolation,
								Attr: attr, TIDs: []int{tid},
							})
						}
					case ci.unique:
						for _, tid := range tids {
							if codes[tid] != ci.code {
								out = append(out, Violation{
									CFD: c, Row: rowIdx, Kind: ConstViolation,
									Attr: attr, TIDs: []int{tid},
								})
							}
						}
					default:
						for _, tid := range tids {
							if !p.Matches(r.Get(tid, attr)) {
								out = append(out, Violation{
									CFD: c, Row: rowIdx, Kind: ConstViolation,
									Attr: attr, TIDs: []int{tid},
								})
							}
						}
					}
					continue
				}
				// Wildcard RHS: the group must agree on attr.
				if len(tids) < 2 {
					continue
				}
				if groupVarConflict(r, prep.rhsCodes[j], tids, attr) {
					group := append([]int(nil), tids...)
					sort.Ints(group)
					out = append(out, Violation{
						CFD: c, Row: rowIdx, Kind: VarViolation,
						Attr: attr, TIDs: group,
					})
				}
			}
		}
	}
	return out
}

// IncDetect returns the violations of c in r that involve at least one of
// the given TIDs (typically a freshly inserted or edited batch; duplicates
// and any order are fine). The caller provides the current X-partition
// over all of r. IncDetect walks the delta, not the groups it lands in —
// the access pattern of the IncRepair algorithm (Cong et al., VLDB
// 2007): the delta's (group, TID) pairs are sorted, each touched group's
// LHS is matched once on one of its delta members (members agree on X),
// a constant RHS is checked on the group's delta members only, and the
// group's full membership is read only when a wildcard-RHS row matches
// it. An append therefore costs O(|delta|) here unless it joins a group
// a wildcard RHS constrains. Groups are visited in ascending
// group-index order and members in ascending TID order, so the output
// is deterministic: per group, rows, RHS attributes and TIDs in the
// order DetectGroups reports them, restricted to the delta.
//
// IncDetect tolerates an overlay: the PLI may come from
// IndexCache.GetDelta, with appended rows absorbed but not compacted
// (relation.PLI.advance), so an appended batch costs O(delta) partition
// maintenance plus the touched groups — no rebuild, no compaction.
// It equally tolerates patched partitions (relation.PLI.patch, the
// drained form of a Set's journal entry): a re-homed TID is recorded as
// added to its new group and removed from its old one, both of which
// Group and GroupOf present as ordinary membership.
// Uncompacted new groups iterate after the base groups instead
// of in sorted-key position; full detection (DetectGroups over
// IndexCache.Get) always sees canonical order.
func IncDetect(r *relation.Relation, c *CFD, pli *relation.PLI, tids []int) []Violation {
	delta := make([][2]int, len(tids)) // (group, TID)
	for i, tid := range tids {
		delta[i] = [2]int{pli.GroupOf(tid), tid}
	}
	slices.SortFunc(delta, func(a, b [2]int) int {
		if d := cmp.Compare(a[0], b[0]); d != 0 {
			return d
		}
		return cmp.Compare(a[1], b[1])
	})
	delta = slices.Compact(delta)

	var out []Violation
	nl := len(c.lhs)
	for lo := 0; lo < len(delta); {
		g, hi := delta[lo][0], lo+1
		for hi < len(delta) && delta[hi][0] == g {
			hi++
		}
		members := delta[lo:hi]
		lo = hi
		var group []int // the whole group, read on the first wildcard-RHS match
		for rowIdx, row := range c.tableau {
			if !rowMatches(r, row[:nl], c.lhs, members[0][1]) {
				continue
			}
			for j, attr := range c.rhs {
				p := row[nl+j]
				if p.IsConst() {
					for _, m := range members {
						if !p.Matches(r.Get(m[1], attr)) {
							out = append(out, Violation{
								CFD: c, Row: rowIdx, Kind: ConstViolation,
								Attr: attr, TIDs: []int{m[1]},
							})
						}
					}
					continue
				}
				if group == nil {
					group = pli.Group(g)
				}
				if len(group) >= 2 && groupVarConflict(r, r.ColumnCodes(attr), group, attr) {
					out = append(out, Violation{
						CFD: c, Row: rowIdx, Kind: VarViolation,
						Attr: attr, TIDs: slices.Clone(group), // Group is ascending
					})
				}
			}
		}
	}
	return out
}

// ViolatingTIDs collapses a violation list to the sorted set of involved
// tuple IDs — the shape of the answer the detection SQL queries of
// TODS 2008 return. TIDs are dense in practice, so the set is a bitset
// over [min, max] read back in order; a range so sparse that the bitset
// would have more words than the list has TIDs is sorted and compacted
// instead.
func ViolatingTIDs(vs []Violation) []int {
	n, lo, hi := 0, 0, 0
	for _, v := range vs {
		for _, tid := range v.TIDs {
			if n == 0 || tid < lo {
				lo = tid
			}
			if n == 0 || tid > hi {
				hi = tid
			}
			n++
		}
	}
	if n == 0 {
		return []int{}
	}
	if span := hi - lo; span < 0 || span/64 >= n { // span < 0: hi-lo overflowed
		out := make([]int, 0, n)
		for _, v := range vs {
			out = append(out, v.TIDs...)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	words := make([]uint64, (hi-lo)/64+1)
	for _, v := range vs {
		for _, tid := range v.TIDs {
			words[(tid-lo)/64] |= 1 << ((tid - lo) % 64)
		}
	}
	distinct := 0
	for _, word := range words {
		distinct += bits.OnesCount64(word)
	}
	out := make([]int, 0, distinct)
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			out = append(out, lo+w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}
