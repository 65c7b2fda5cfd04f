// Package editrules implements repairing with editing rules and master
// data — the direction §6(b) of the tutorial lists as an open problem
// ("database repairs in master data management"), subsequently developed
// by the same group as "certain fixes" (Fan, Li, Ma, Tang, Yu: Towards
// certain fixes with editing rules and master data, VLDB 2010).
//
// An editing rule σ = ((X, Xm) → (B, Bm), tp) says: when an input tuple
// t matches the pattern tp and agrees with a master tuple s on the
// correlated lists (t[X] = s[Xm]), then t[B] must be corrected to
// s[Bm] — the master database is assumed correct and complete.
//
// Unlike the heuristic CFD repairs of the repair package, fixes here are
// CERTAIN: a fix is applied only when it is uniquely determined by the
// master data and the validated region of the tuple (the attributes the
// user has asserted correct). Validated attributes grow monotonically as
// rules fire, which lets rules chain; any ambiguity (two master tuples
// demanding different values) aborts with an error rather than guessing.
package editrules

import (
	"fmt"
	"sort"
	"strings"

	"semandaq/internal/pattern"
	"semandaq/internal/relation"
)

// Rule is one editing rule.
type Rule struct {
	name   string
	input  *relation.Schema
	master *relation.Schema

	matchIn     []int // X: input attributes matched against the master
	matchMaster []int // Xm: corresponding master attributes

	patAttrs []int       // Xp: input attributes constrained by the pattern
	pats     pattern.Row // tp: constants/wildcards over Xp

	fixIn     []int // B: input attributes to correct
	fixMaster []int // Bm: master attributes supplying the corrections
}

// NewRule constructs an editing rule. Correlated and fix lists must be
// non-empty, pairwise equal length, and fix targets must not overlap the
// match attributes (a rule must not overwrite its own evidence).
func NewRule(name string, input, master *relation.Schema,
	matchIn, matchMaster []string,
	patNames []string, pats pattern.Row,
	fixIn, fixMaster []string) (*Rule, error) {

	if len(matchIn) == 0 || len(matchIn) != len(matchMaster) {
		return nil, fmt.Errorf("editrules %s: match lists must be non-empty and equal length", name)
	}
	if len(fixIn) == 0 || len(fixIn) != len(fixMaster) {
		return nil, fmt.Errorf("editrules %s: fix lists must be non-empty and equal length", name)
	}
	if len(patNames) != len(pats) {
		return nil, fmt.Errorf("editrules %s: pattern width mismatch", name)
	}
	mi, err := input.Indexes(matchIn...)
	if err != nil {
		return nil, fmt.Errorf("editrules %s: %w", name, err)
	}
	mm, err := master.Indexes(matchMaster...)
	if err != nil {
		return nil, fmt.Errorf("editrules %s: %w", name, err)
	}
	pa, err := input.Indexes(patNames...)
	if err != nil {
		return nil, fmt.Errorf("editrules %s: %w", name, err)
	}
	fi, err := input.Indexes(fixIn...)
	if err != nil {
		return nil, fmt.Errorf("editrules %s: %w", name, err)
	}
	fm, err := master.Indexes(fixMaster...)
	if err != nil {
		return nil, fmt.Errorf("editrules %s: %w", name, err)
	}
	inMatch := map[int]bool{}
	for _, a := range mi {
		inMatch[a] = true
	}
	for _, a := range fi {
		if inMatch[a] {
			return nil, fmt.Errorf("editrules %s: fix attribute %s overlaps the match premise",
				name, input.Attr(a).Name)
		}
	}
	return &Rule{
		name: name, input: input, master: master,
		matchIn: mi, matchMaster: mm,
		patAttrs: pa, pats: pats.Clone(),
		fixIn: fi, fixMaster: fm,
	}, nil
}

// Name returns the rule's identifier.
func (r *Rule) Name() string { return r.name }

// String renders the rule.
func (r *Rule) String() string {
	var b strings.Builder
	if r.name != "" {
		b.WriteString("edit ")
		b.WriteString(r.name)
		b.WriteString(": ")
	}
	b.WriteString("if ")
	for i := range r.matchIn {
		if i > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "t.%s = m.%s",
			r.input.Attr(r.matchIn[i]).Name, r.master.Attr(r.matchMaster[i]).Name)
	}
	for i, a := range r.patAttrs {
		fmt.Fprintf(&b, " and t.%s matches %s", r.input.Attr(a).Name, r.pats[i])
	}
	b.WriteString(" then ")
	for i := range r.fixIn {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "t.%s := m.%s",
			r.input.Attr(r.fixIn[i]).Name, r.master.Attr(r.fixMaster[i]).Name)
	}
	return b.String()
}

// Fix records one applied correction.
type Fix struct {
	Rule string
	Attr int
	From relation.Value
	To   relation.Value
}

// Fixer applies a rule set against a master relation.
type Fixer struct {
	master *relation.Relation
	rules  []*Rule
	// indexes caches the master's partitions on each rule's match
	// attributes; rules sharing a correlated list share one PLI, and the
	// cache revalidates against the master on every fix, so edits to the
	// master between fixes are picked up instead of served stale.
	indexes *relation.IndexCache
}

// NewFixer validates the rules against the master relation and builds
// the lookup indexes.
func NewFixer(master *relation.Relation, rules []*Rule) (*Fixer, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("editrules: at least one rule required")
	}
	f := &Fixer{master: master, rules: rules, indexes: relation.NewIndexCache()}
	for _, r := range rules {
		if !r.master.Equal(master.Schema()) {
			return nil, fmt.Errorf("editrules: rule %s is over master schema %s, relation is %s",
				r.name, r.master.Name(), master.Schema().Name())
		}
		f.indexes.Get(master, r.matchMaster)
	}
	return f, nil
}

// CertainFix corrects the tuple using the rules and master data.
// validated lists the attribute positions the caller asserts correct
// (e.g. user-verified fields); only validated attributes can serve as
// rule evidence, and every fixed attribute becomes validated, letting
// rules chain. The input tuple is not modified.
//
// CertainFix errors when rules conflict: a rule matches several master
// tuples disagreeing on a fix value, two rules demand different values,
// or a rule contradicts an already-validated attribute — in each case no
// CERTAIN fix exists and a human must intervene.
func (f *Fixer) CertainFix(t relation.Tuple, validated []int) (relation.Tuple, []Fix, error) {
	if len(t) != f.rules[0].input.Arity() {
		return nil, nil, fmt.Errorf("editrules: tuple arity %d does not match schema %s", len(t), f.rules[0].input)
	}
	out := t.Clone()
	valid := map[int]bool{}
	for _, a := range validated {
		if a < 0 || a >= len(t) {
			return nil, nil, fmt.Errorf("editrules: validated attribute %d out of range", a)
		}
		valid[a] = true
	}
	var fixes []Fix
	for changed := true; changed; {
		changed = false
		for _, rule := range f.rules {
			// Evidence must be validated.
			ok := true
			for _, a := range rule.matchIn {
				if !valid[a] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, a := range rule.patAttrs {
				if !valid[a] {
					ok = false
					break
				}
			}
			if !ok || !rule.pats.Matches(out, rule.patAttrs) {
				continue
			}
			// NULL evidence never matches master values.
			hasNull := false
			for _, a := range rule.matchIn {
				if out[a].IsNull() {
					hasNull = true
					break
				}
			}
			if hasNull {
				continue
			}
			masters := f.indexes.Get(f.master, rule.matchMaster).Lookup(out.Project(rule.matchIn))
			if len(masters) == 0 {
				continue
			}
			// All matching master tuples must agree on every fix value.
			for bi, attr := range rule.fixIn {
				want := f.master.Get(masters[0], rule.fixMaster[bi])
				for _, mid := range masters[1:] {
					got := f.master.Get(mid, rule.fixMaster[bi])
					if !got.Identical(want) {
						return nil, nil, fmt.Errorf(
							"editrules: rule %s matches master tuples disagreeing on %s (%s vs %s); no certain fix",
							rule.name, rule.input.Attr(attr).Name, want, got)
					}
				}
				if valid[attr] {
					if !out[attr].Identical(want) {
						return nil, nil, fmt.Errorf(
							"editrules: rule %s demands %s=%s but the attribute is validated as %s; no certain fix",
							rule.name, rule.input.Attr(attr).Name, want, out[attr])
					}
					continue
				}
				if !out[attr].Identical(want) {
					fixes = append(fixes, Fix{Rule: rule.name, Attr: attr, From: out[attr], To: want})
					out[attr] = want
				}
				valid[attr] = true
				changed = true
			}
		}
	}
	sort.Slice(fixes, func(i, j int) bool { return fixes[i].Attr < fixes[j].Attr })
	return out, fixes, nil
}

// FixRelation applies CertainFix to every tuple of rel with the same
// initially-validated attributes, returning a corrected copy and the
// per-tuple fixes. Tuples whose fix is uncertain are left unchanged and
// reported in uncertain.
func (f *Fixer) FixRelation(rel *relation.Relation, validated []int) (*relation.Relation, map[int][]Fix, []int, error) {
	if !rel.Schema().Equal(f.rules[0].input) {
		return nil, nil, nil, fmt.Errorf("editrules: relation schema %s does not match rules", rel.Schema().Name())
	}
	out := rel.Clone()
	all := map[int][]Fix{}
	var uncertain []int
	for tid := 0; tid < rel.Len(); tid++ {
		fixed, fixes, err := f.CertainFix(rel.Tuple(tid), validated)
		if err != nil {
			uncertain = append(uncertain, tid)
			continue
		}
		if len(fixes) > 0 {
			for attr := range fixed {
				out.Set(tid, attr, fixed[attr])
			}
			all[tid] = fixes
		}
	}
	return out, all, uncertain, nil
}
