package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rowModel is the row store the relation used to keep beside its
// columns, as a plain []Tuple: the oracle for reading rows back from
// codes. Its write rules are the relation's documented ones — Insert
// validates and coerces int into float columns, InsertUnchecked stores
// cells as given, Set coerces but never rejects.
type rowModel struct {
	schema *Schema
	rows   []Tuple
}

func (m *rowModel) coerce(attr int, v Value) Value {
	if !v.IsNull() && v.Kind() == KindInt && m.schema.Attr(attr).Kind == KindFloat {
		return Float(v.FloatVal())
	}
	return v
}

func (m *rowModel) insert(t Tuple) bool {
	if len(t) != m.schema.Arity() {
		return false
	}
	row := make(Tuple, len(t))
	for a, v := range t {
		want := m.schema.Attr(a).Kind
		if !v.IsNull() && v.Kind() != want && !(want == KindFloat && v.Kind() == KindInt) {
			return false
		}
		row[a] = m.coerce(a, v)
	}
	m.rows = append(m.rows, row)
	return true
}

func (m *rowModel) clone() *rowModel {
	out := &rowModel{schema: m.schema, rows: make([]Tuple, len(m.rows))}
	for i, t := range m.rows {
		out.rows[i] = t.Clone()
	}
	return out
}

func encodeCells(t Tuple) string { return string(EncodeTuple(nil, t)) }

// checkRowStore asserts that r reads back exactly the model's rows —
// through Get, Tuple and Tuples, compared by Encode bytes — and that
// writing into a returned tuple leaves r unchanged.
func checkRowStore(t *testing.T, ctx string, r *Relation, m *rowModel) {
	t.Helper()
	if r.Len() != len(m.rows) {
		t.Fatalf("%s: Len %d, model %d", ctx, r.Len(), len(m.rows))
	}
	all := r.Tuples()
	if len(all) != len(m.rows) {
		t.Fatalf("%s: Tuples has %d rows, model %d", ctx, len(all), len(m.rows))
	}
	var buf [48]byte
	for tid, want := range m.rows {
		w := encodeCells(want)
		if got := encodeCells(r.Tuple(tid)); got != w {
			t.Fatalf("%s: Tuple(%d) = %v, model %v", ctx, tid, r.Tuple(tid), want)
		}
		if got := encodeCells(all[tid]); got != w {
			t.Fatalf("%s: Tuples()[%d] = %v, model %v", ctx, tid, all[tid], want)
		}
		for a, v := range want {
			if !bytes.Equal(r.Get(tid, a).Encode(nil), v.Encode(buf[:0])) {
				t.Fatalf("%s: Get(%d, %d) = %v, model %v", ctx, tid, a, r.Get(tid, a), v)
			}
		}
	}
	if len(m.rows) == 0 {
		return
	}
	tid := len(m.rows) / 2
	mine := r.Tuple(tid)
	for a := range mine {
		mine[a] = String("scribbled")
		all[tid][a] = String("scribbled")
	}
	if got := encodeCells(r.Tuple(tid)); got != encodeCells(m.rows[tid]) {
		t.Fatalf("%s: writing into a returned tuple changed row %d to %v", ctx, tid, r.Tuple(tid))
	}
}

// TestRowStoreModel drives random Insert, InsertUnchecked (with
// kind-mismatched cells), Set (int → float coercion, NaN), Truncate,
// SortStable, Clone and snapshot round trips through a relation and the
// row model side by side, and checks after every step that the relation
// reads back the model's rows exactly.
func TestRowStoreModel(t *testing.T) {
	s := MustSchema("rs", Attribute{"A", KindString}, Attribute{"B", KindInt}, Attribute{"C", KindFloat})
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		anyValue := func() Value {
			switch rng.Intn(9) {
			case 0:
				return Null()
			case 1:
				return Float(math.NaN())
			case 2:
				return Float(math.Copysign(0, -1))
			case 3, 4:
				return Int(int64(rng.Intn(4)))
			case 5, 6:
				return Float(float64(rng.Intn(4)) + 0.5*float64(rng.Intn(2)))
			default:
				return String([]string{"x", "y", "z", ""}[rng.Intn(4)])
			}
		}
		// wellKinded draws a value Insert accepts for attribute a.
		wellKinded := func(a int) Value {
			for {
				v := anyValue()
				want := s.Attr(a).Kind
				if v.IsNull() || v.Kind() == want || (want == KindFloat && v.Kind() == KindInt) {
					return v
				}
			}
		}
		r, m := New(s), &rowModel{schema: s}
		for step := 0; step < 400; step++ {
			var op string
			switch k := rng.Intn(20); {
			case k < 7:
				op = "insert"
				tp := Tuple{wellKinded(0), wellKinded(1), wellKinded(2)}
				if rng.Intn(5) == 0 {
					tp[rng.Intn(3)] = anyValue() // may be rejected
				}
				before := encodeCells(tp)
				_, err := r.Insert(tp)
				if ok := m.insert(tp); ok != (err == nil) {
					t.Fatalf("seed %d step %d: Insert(%v) err %v, model accepts %v", seed, step, tp, err, ok)
				}
				if encodeCells(tp) != before {
					t.Fatalf("seed %d step %d: Insert wrote into the caller's tuple: %v", seed, step, tp)
				}
			case k < 9:
				op = "insert-unchecked"
				tp := Tuple{anyValue(), anyValue(), anyValue()}
				r.InsertUnchecked(tp)
				m.rows = append(m.rows, tp.Clone())
			case k < 15:
				op = "set"
				if len(m.rows) == 0 {
					continue
				}
				tid, a, v := rng.Intn(len(m.rows)), rng.Intn(3), anyValue()
				r.Set(tid, a, v)
				m.rows[tid][a] = m.coerce(a, v)
			case k < 16:
				op = "truncate"
				n := rng.Intn(len(m.rows) + 2)
				r.Truncate(n)
				if n >= 0 && n < len(m.rows) {
					m.rows = m.rows[:n]
				}
			case k < 17:
				op = "sort"
				attr := rng.Intn(3)
				less := func(x, y Tuple) bool { return x[attr].Compare(y[attr]) < 0 }
				r.SortStable(less)
				sort.SliceStable(m.rows, func(i, j int) bool { return less(m.rows[i], m.rows[j]) })
			case k < 18:
				op = "clone"
				if c := r.Clone(); c.Len() > 0 {
					c.Set(0, 0, String("only in the clone")) // must not reach r
					checkRowStore(t, fmt.Sprintf("seed %d step %d: original after clone edit", seed, step), r, m)
				}
				r = r.Clone()
				m = m.clone()
			default:
				op = "snapshot"
				var b bytes.Buffer
				if err := r.WriteSnapshot(&b); err != nil {
					t.Fatal(err)
				}
				back, err := ReadSnapshot(b.Bytes(), s)
				if err != nil {
					t.Fatal(err)
				}
				r = back
			}
			checkRowStore(t, fmt.Sprintf("seed %d step %d %s", seed, step, op), r, m)
		}
	}
}
