package cfd

import (
	"fmt"
	"sort"
	"strings"

	"semandaq/internal/relation"
)

// This file implements eCFDs — the extension of CFDs with disjunction and
// negation in patterns — introduced by Bravo, Fan, Geerts and Ma
// ("Increasing the expressivity of conditional functional dependencies
// without extra complexity", ICDE 2008), cited as [3] by the tutorial.
//
// An ePattern is one of:
//
//	_            any value        (wildcard)
//	{a, b, c}    disjunction      (value must be one of the constants)
//	!{a, b}      negation         (value must be none of the constants)
//
// A plain constant is the singleton disjunction {a}. Detection
// generalizes the grouped CFD algorithm; the ICDE 2008 result is that the
// added expressivity does not change the complexity of the analyses, and
// the detection code below indeed runs in the same bounds.

// EPatternOp classifies an ePattern.
type EPatternOp int

const (
	// EAny matches every value.
	EAny EPatternOp = iota
	// EIn matches values in the constant set.
	EIn
	// ENotIn matches values outside the constant set.
	ENotIn
)

// EPattern is a pattern value with disjunction/negation.
type EPattern struct {
	Op   EPatternOp
	Vals []relation.Value // sorted by Compare for canonical rendering
}

// EAnyP returns the wildcard ePattern.
func EAnyP() EPattern { return EPattern{Op: EAny} }

// EInP returns the disjunctive ePattern {vals...}.
func EInP(vals ...relation.Value) EPattern {
	return EPattern{Op: EIn, Vals: sortVals(vals)}
}

// ENotInP returns the negated ePattern !{vals...}.
func ENotInP(vals ...relation.Value) EPattern {
	return EPattern{Op: ENotIn, Vals: sortVals(vals)}
}

func sortVals(vals []relation.Value) []relation.Value {
	out := append([]relation.Value(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Matches reports whether v matches the ePattern. As with CFD constants,
// NULL matches only the wildcard.
func (p EPattern) Matches(v relation.Value) bool {
	switch p.Op {
	case EAny:
		return true
	case EIn:
		if v.IsNull() {
			return false
		}
		for _, c := range p.Vals {
			if c.Identical(v) {
				return true
			}
		}
		return false
	default: // ENotIn
		if v.IsNull() {
			return false
		}
		for _, c := range p.Vals {
			if c.Identical(v) {
				return false
			}
		}
		return true
	}
}

// String renders the ePattern.
func (p EPattern) String() string {
	switch p.Op {
	case EAny:
		return "_"
	case EIn:
		return "{" + joinVals(p.Vals) + "}"
	default:
		return "!{" + joinVals(p.Vals) + "}"
	}
}

func joinVals(vals []relation.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		if v.Kind() == relation.KindString {
			parts[i] = "'" + v.Str() + "'"
		} else {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, ", ")
}

// ECFD is an eCFD: an embedded FD X → Y with an ePattern tableau.
type ECFD struct {
	name    string
	schema  *relation.Schema
	lhs     []int
	rhs     []int
	tableau [][]EPattern
}

// NewECFD constructs an eCFD; the tableau rows must have width |X|+|Y|.
func NewECFD(name string, schema *relation.Schema, lhsNames, rhsNames []string, tableau [][]EPattern) (*ECFD, error) {
	if len(lhsNames) == 0 || len(rhsNames) == 0 {
		return nil, fmt.Errorf("ecfd %s: X and Y must be non-empty", name)
	}
	lhs, err := schema.Indexes(lhsNames...)
	if err != nil {
		return nil, fmt.Errorf("ecfd %s: %w", name, err)
	}
	rhs, err := schema.Indexes(rhsNames...)
	if err != nil {
		return nil, fmt.Errorf("ecfd %s: %w", name, err)
	}
	width := len(lhs) + len(rhs)
	for i, row := range tableau {
		if len(row) != width {
			return nil, fmt.Errorf("ecfd %s: tableau row %d has width %d, want %d", name, i, len(row), width)
		}
	}
	if len(tableau) == 0 {
		row := make([]EPattern, width)
		for i := range row {
			row[i] = EAnyP()
		}
		tableau = [][]EPattern{row}
	}
	return &ECFD{name: name, schema: schema, lhs: lhs, rhs: rhs, tableau: tableau}, nil
}

// Name returns the eCFD's identifier.
func (e *ECFD) Name() string { return e.name }

// Schema returns the schema the eCFD is defined over.
func (e *ECFD) Schema() *relation.Schema { return e.schema }

// LHS returns the positions of the X attributes.
func (e *ECFD) LHS() []int { return append([]int(nil), e.lhs...) }

// RHS returns the positions of the Y attributes.
func (e *ECFD) RHS() []int { return append([]int(nil), e.rhs...) }

// Rows returns the number of tableau rows.
func (e *ECFD) Rows() int { return len(e.tableau) }

// Row returns tableau row i (X patterns then Y patterns).
func (e *ECFD) Row(i int) []EPattern {
	return append([]EPattern(nil), e.tableau[i]...)
}

// String renders the eCFD.
func (e *ECFD) String() string {
	var b strings.Builder
	b.WriteString("ecfd ")
	if e.name != "" {
		b.WriteString(e.name)
		b.WriteString(": ")
	}
	b.WriteString(e.schema.Name())
	b.WriteString("([")
	for i, a := range e.lhs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.schema.Attr(a).Name)
	}
	b.WriteString("] -> [")
	for i, a := range e.rhs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.schema.Attr(a).Name)
	}
	b.WriteString("]) { ")
	for i, row := range e.tableau {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, p := range row {
			if j == len(e.lhs) {
				b.WriteString(" || ")
			} else if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		b.WriteByte(')')
	}
	b.WriteString(" }")
	return b.String()
}

// DetectECFD returns all violations of the eCFD in r, in the same
// Violation shape as CFD detection (the CFD field is nil; use the
// returned violations' TIDs/Attr/Row/Kind).
func DetectECFD(r *relation.Relation, e *ECFD) ([]Violation, error) {
	if !r.Schema().Equal(e.schema) {
		return nil, fmt.Errorf("ecfd: detecting %s over schema %s, want %s",
			e.name, r.Schema().Name(), e.schema.Name())
	}
	// Partition by X through a PLI; group order is sorted-key order, so
	// the violation list is deterministic (the legacy hash index iterated
	// buckets in map order).
	pli := relation.BuildPLI(r, e.lhs)
	var out []Violation
	nl := len(e.lhs)
	for g := 0; g < pli.NumGroups(); g++ {
		tids := pli.Group(g)
		for rowIdx, row := range e.tableau {
			matched := true
			for i, attr := range e.lhs {
				if !row[i].Matches(r.Get(tids[0], attr)) {
					matched = false
					break
				}
			}
			if !matched {
				continue
			}
			for j, attr := range e.rhs {
				p := row[nl+j]
				if p.Op != EAny {
					// Constrained RHS: every tuple in the group must match
					// the disjunction/negation (single-tuple violations).
					for _, tid := range tids {
						if !p.Matches(r.Get(tid, attr)) {
							out = append(out, Violation{
								Row: rowIdx, Kind: ConstViolation, Attr: attr, TIDs: []int{tid},
							})
						}
					}
					continue
				}
				if len(tids) < 2 {
					continue
				}
				first := r.Get(tids[0], attr)
				for _, tid := range tids[1:] {
					if !r.Get(tid, attr).Identical(first) {
						group := append([]int(nil), tids...)
						sort.Ints(group)
						out = append(out, Violation{
							Row: rowIdx, Kind: VarViolation, Attr: attr, TIDs: group,
						})
						break
					}
				}
			}
		}
	}
	return out, nil
}
