package cfd

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"semandaq/internal/pattern"
	"semandaq/internal/relation"
)

// custSchema is the running example schema of the tutorial (§3) and of
// TODS 2008: cust(CC, AC, PN, NM, STR, CT, ZIP), all string-typed.
func custSchema(t *testing.T) *relation.Schema {
	t.Helper()
	s, err := relation.StringSchema("cust", "CC", "AC", "PN", "NM", "STR", "CT", "ZIP")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func strTuple(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.String(v)
	}
	return t
}

// custData builds the example instance from the tutorial: UK customers
// where zip determines street, US customers with area code 908 in MH.
func custData(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.New(custSchema(t))
	//                 CC    AC     PN         NM      STR            CT     ZIP
	r.MustInsert(strTuple("44", "131", "1111111", "mike", "mayfield rd", "edi", "EH4 8LE"))
	r.MustInsert(strTuple("44", "131", "2222222", "rick", "mayfield rd", "edi", "EH4 8LE"))
	r.MustInsert(strTuple("44", "131", "3333333", "anna", "crichton st", "edi", "EH8 9LE"))
	r.MustInsert(strTuple("01", "908", "4444444", "joe", "mtn ave", "mh", "07974"))
	r.MustInsert(strTuple("01", "908", "5555555", "ben", "high st", "mh", "07974"))
	r.MustInsert(strTuple("01", "212", "6666666", "kim", "broadway", "nyc", "10012"))
	return r
}

func TestNewValidation(t *testing.T) {
	s := custSchema(t)
	if _, err := New("x", s, nil, []string{"STR"}, nil); err == nil {
		t.Error("empty X should fail")
	}
	if _, err := New("x", s, []string{"CC"}, nil, nil); err == nil {
		t.Error("empty Y should fail")
	}
	if _, err := New("x", s, []string{"CC", "CC"}, []string{"STR"}, nil); err == nil {
		t.Error("duplicate X attr should fail")
	}
	if _, err := New("x", s, []string{"CC"}, []string{"CC"}, nil); err == nil {
		t.Error("X ∩ Y ≠ ∅ should fail")
	}
	if _, err := New("x", s, []string{"NOPE"}, []string{"STR"}, nil); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := New("x", s, []string{"CC"}, []string{"STR"},
		pattern.Tableau{{pattern.Wild()}}); err == nil {
		t.Error("wrong tableau width should fail")
	}
	// Empty tableau becomes a plain FD.
	c, err := New("fd", s, []string{"ZIP"}, []string{"STR"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsFD() {
		t.Error("empty tableau should produce a plain FD")
	}
}

func TestParseTutorialExamples(t *testing.T) {
	s := custSchema(t)
	// The first example CFD of tutorial §3: customer([cc = 44, zip] → [street]).
	c, err := Parse("cfd phi1: cust([CC='44', ZIP] -> [STR])", s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "phi1" {
		t.Errorf("name = %q", c.Name())
	}
	if got := c.LHSNames(); got[0] != "CC" || got[1] != "ZIP" {
		t.Errorf("LHS = %v", got)
	}
	if c.Rows() != 1 {
		t.Fatalf("rows = %d", c.Rows())
	}
	if !c.RowLHS(0)[0].Matches(relation.String("44")) || !c.RowLHS(0)[1].IsWild() {
		t.Errorf("row LHS = %v", c.RowLHS(0))
	}
	if !c.RowRHS(0)[0].IsWild() {
		t.Errorf("row RHS = %v", c.RowRHS(0))
	}

	// The second example: customer([cc=01, ac=908, phn] → [street, city='mh', zip]).
	c2, err := Parse("cfd phi2: cust([CC='01', AC='908', PN] -> [STR, CT='mh', ZIP])", s)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Rows() != 1 || len(c2.RHSNames()) != 3 {
		t.Fatalf("phi2 shape: rows=%d rhs=%v", c2.Rows(), c2.RHSNames())
	}
	if !c2.RowRHS(0)[1].Matches(relation.String("mh")) {
		t.Errorf("phi2 CT pattern = %v", c2.RowRHS(0)[1])
	}
}

func TestParseExplicitTableau(t *testing.T) {
	s := custSchema(t)
	c, err := Parse(`cfd phi: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), ('01', '908' || 'mh'), (_, _ || _) }`, s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", c.Rows())
	}
	if !c.RowRHS(1)[0].Matches(relation.String("mh")) {
		t.Errorf("row 1 RHS = %v", c.RowRHS(1))
	}
	if !c.RowLHS(2)[0].IsWild() {
		t.Errorf("row 2 should be all wild: %v", c.RowLHS(2))
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := custSchema(t)
	inputs := []string{
		"cfd a: cust([CC='44', ZIP] -> [STR])",
		"cfd b: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), (_, _ || _) }",
		"cust([ZIP] -> [STR])",
	}
	for _, in := range inputs {
		c, err := Parse(in, s)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		back, err := Parse(c.String(), s)
		if err != nil {
			t.Fatalf("round trip of %q -> %q: %v", in, c.String(), err)
		}
		if back.String() != c.String() {
			t.Errorf("round trip not stable: %q -> %q", c.String(), back.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	s := custSchema(t)
	bad := []string{
		"",
		"cust",
		"cust([CC] -> )",
		"cust([CC] [STR])",
		"other([CC] -> [STR])",
		"cust([NOPE] -> [STR])",
		"cust([CC='44'] -> [STR]) { ('44' || _) }", // inline + tableau
		"cust([CC] -> [STR]) { ('44') }",           // missing ||
		"cust([CC] -> [STR]) { ('44' || _) } extra",
		"cust([CC='unterminated] -> [STR])",
	}
	for _, in := range bad {
		if _, err := Parse(in, s); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseSet(t *testing.T) {
	s := custSchema(t)
	src := `
# tutorial constraints
cfd phi1: cust([CC='44', ZIP] -> [STR])
cfd phi2: cust([CC='01', AC='908', PN] -> [STR, CT='mh', ZIP])
`
	set, err := ParseSet(src, s)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("set len = %d", set.Len())
	}
	if set.TotalRows() != 2 {
		t.Errorf("TotalRows = %d", set.TotalRows())
	}
}

func TestDetectCleanData(t *testing.T) {
	r := custData(t)
	set, err := ParseSet(`
cfd phi1: cust([CC='44', ZIP] -> [STR])
cfd phi2: cust([CC='01', AC='908', PN] -> [STR, CT='mh', ZIP])
cfd phi3: cust([CC, AC] -> [CT])
`, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := NewDetector(set).Detect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("clean data should have no violations, got %v", vs)
	}
}

func TestDetectConstViolation(t *testing.T) {
	r := custData(t)
	// Break phi2's constant: a 908 customer outside mh.
	r.Set(4, r.Schema().MustIndex("CT"), relation.String("nyc"))
	c := MustParse("cfd phi2: cust([CC='01', AC='908', PN] -> [CT='mh'])", r.Schema())
	vs, err := DetectOne(r, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly 1", vs)
	}
	v := vs[0]
	if v.Kind != ConstViolation || len(v.TIDs) != 1 || v.TIDs[0] != 4 {
		t.Errorf("violation = %+v", v)
	}
	if v.Attr != r.Schema().MustIndex("CT") {
		t.Errorf("violated attr = %d", v.Attr)
	}
}

func TestDetectVarViolation(t *testing.T) {
	r := custData(t)
	// Tuples 0 and 1 are UK customers sharing ZIP; break their STR.
	r.Set(1, r.Schema().MustIndex("STR"), relation.String("corrupted st"))
	c := MustParse("cfd phi1: cust([CC='44', ZIP] -> [STR])", r.Schema())
	vs, err := DetectOne(r, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly 1", vs)
	}
	v := vs[0]
	if v.Kind != VarViolation {
		t.Errorf("kind = %v", v.Kind)
	}
	if len(v.TIDs) != 2 || v.TIDs[0] != 0 || v.TIDs[1] != 1 {
		t.Errorf("TIDs = %v, want [0 1]", v.TIDs)
	}
}

func TestDetectFDvsCFDCapturesMore(t *testing.T) {
	// The tutorial's core point: the CFD catches inconsistencies the plain
	// FD cannot. Two US tuples share ZIP but differ on STR — legal for
	// the conditional phi1 (scoped to CC=44), but the same data violates
	// the unconditional FD ZIP → STR.
	r := custData(t)
	zip, str := r.Schema().MustIndex("ZIP"), r.Schema().MustIndex("STR")
	r.Set(5, zip, relation.String("07974")) // kim now shares joe/ben's zip
	_ = str
	cfdPhi := MustParse("cust([CC='44', ZIP] -> [STR])", r.Schema())
	fd := MustParse("cust([ZIP] -> [STR])", r.Schema())
	vsCFD, _ := DetectOne(r, cfdPhi)
	vsFD, _ := DetectOne(r, fd)
	if len(vsCFD) != 0 {
		t.Errorf("conditional CFD should not fire on US tuples: %v", vsCFD)
	}
	if len(vsFD) == 0 {
		t.Error("plain FD should fire on shared-zip US tuples")
	}

	// Conversely, a constant CFD catches a single-tuple error no FD can:
	// one 908 customer with a wrong city is invisible to every FD (there
	// is no second tuple to disagree with after changing PN to be unique).
	r2 := custData(t)
	r2.Set(4, r2.Schema().MustIndex("CT"), relation.String("nyc"))
	constCFD := MustParse("cust([CC='01', AC='908', PN] -> [CT='mh'])", r2.Schema())
	vs, _ := DetectOne(r2, constCFD)
	if len(vs) != 1 {
		t.Errorf("constant CFD should flag the mistyped city: %v", vs)
	}
}

func TestDetectMultiRowTableau(t *testing.T) {
	r := custData(t)
	c := MustParse(`cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), ('01', '908' || 'mh') }`, r.Schema())
	// Clean: no violations.
	vs, err := DetectOne(r, c)
	if err != nil || len(vs) != 0 {
		t.Fatalf("clean: %v, %v", vs, err)
	}
	// Corrupt a UK row city: only row 0 fires.
	r.Set(2, r.Schema().MustIndex("CT"), relation.String("gla"))
	vs, _ = DetectOne(r, c)
	if len(vs) != 1 || vs[0].Row != 0 || vs[0].TIDs[0] != 2 {
		t.Errorf("violations = %v", vs)
	}
}

func TestDetectNullSemantics(t *testing.T) {
	s := custSchema(t)
	r := relation.New(s)
	r.MustInsert(strTuple("44", "131", "1", "a", "x st", "edi", "Z"))
	tid, _ := r.Insert(relation.Tuple{
		relation.String("44"), relation.String("131"), relation.String("2"),
		relation.String("b"), relation.Null(), relation.String("edi"), relation.String("Z"),
	})
	c := MustParse("cust([CC='44', ZIP] -> [STR])", s)
	vs, _ := DetectOne(r, c)
	// NULL differs from "x st" under Identical, so the pair conflicts.
	if len(vs) != 1 || vs[0].Kind != VarViolation {
		t.Fatalf("NULL vs value should conflict: %v", vs)
	}
	// A constant pattern never matches NULL: tuple with NULL CC is out of scope.
	r2 := relation.New(s)
	r2.MustInsert(relation.Tuple{
		relation.Null(), relation.String("131"), relation.String("1"),
		relation.String("a"), relation.String("s"), relation.String("edi"), relation.String("Z"),
	})
	vs2, _ := DetectOne(r2, MustParse("cust([CC='44', ZIP] -> [STR='s2'])", s))
	if len(vs2) != 0 {
		t.Errorf("NULL CC should not match constant pattern: %v", vs2)
	}
	_ = tid
}

func TestViolatingTIDs(t *testing.T) {
	vs := []Violation{
		{TIDs: []int{3, 1}},
		{TIDs: []int{1, 5}},
	}
	got := ViolatingTIDs(vs)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("ViolatingTIDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ViolatingTIDs = %v, want %v", got, want)
		}
	}
}

// violatingTIDsRef is ViolatingTIDs as it was before the bitset: the
// reference the property test below compares against.
func violatingTIDsRef(vs []Violation) []int {
	seen := map[int]bool{}
	for _, v := range vs {
		for _, tid := range v.TIDs {
			seen[tid] = true
		}
	}
	out := make([]int, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// TestViolatingTIDsProperty: the bitset and the sparse fallback return
// exactly what the map + sort did, empty result included (non-nil, so it
// still encodes as [] and not null).
func TestViolatingTIDsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lists := [][]Violation{
		nil,
		{},
		{{TIDs: nil}, {TIDs: []int{}}},
		{{TIDs: []int{7}}},
		{{TIDs: []int{0}}, {TIDs: []int{0, 0, 0}}},
		{{TIDs: []int{63, 64, 65, 127, 128}}},
		{{TIDs: []int{5, 1 << 40}}},                      // sparse
		{{TIDs: []int{math.MinInt, math.MaxInt, -3, 0}}}, // span overflows
	}
	for i := 0; i < 300; i++ {
		// Ranges from duplicate-heavy (a few values) to sparse (far more
		// values than TIDs), at an offset so min is rarely 0.
		span, base := 1+rng.Intn(1<<uint(1+rng.Intn(20))), rng.Intn(1000)
		vs := make([]Violation, rng.Intn(40))
		for j := range vs {
			tids := make([]int, rng.Intn(30))
			for k := range tids {
				tids[k] = base + rng.Intn(span)
			}
			vs[j].TIDs = tids
		}
		lists = append(lists, vs)
	}
	for i, vs := range lists {
		got, want := ViolatingTIDs(vs), violatingTIDsRef(vs)
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("list %d: ViolatingTIDs = %v, reference %v", i, got, want)
		}
	}
}

func TestIncDetect(t *testing.T) {
	r := custData(t)
	c := MustParse("cust([CC='44', ZIP] -> [STR])", r.Schema())
	// Insert a new conflicting UK tuple.
	tid := r.MustInsert(strTuple("44", "131", "7777777", "eve", "WRONG ST", "edi", "EH4 8LE"))
	pli := relation.BuildPLI(r, c.LHS())
	vs := IncDetect(r, c, pli, []int{tid})
	if len(vs) != 1 || vs[0].Kind != VarViolation {
		t.Fatalf("IncDetect = %v", vs)
	}
	// The group must contain the new tuple and the existing ones.
	if len(vs[0].TIDs) != 3 {
		t.Errorf("group TIDs = %v, want 3 tuples", vs[0].TIDs)
	}
	// Full detection agrees.
	full, _ := DetectOne(r, c)
	if len(full) != 1 || full[0].Kind != VarViolation {
		t.Errorf("full detect = %v", full)
	}
}

func TestIncDetectUntouchedGroupIgnored(t *testing.T) {
	r := custData(t)
	c := MustParse("cust([CC='44', ZIP] -> [STR])", r.Schema())
	// Corrupt an existing group...
	r.Set(1, r.Schema().MustIndex("STR"), relation.String("corrupt"))
	// ...but only ask about a new tuple in a different group.
	tid := r.MustInsert(strTuple("44", "131", "9", "zed", "new st", "edi", "NEW ZIP"))
	pli := relation.BuildPLI(r, c.LHS())
	vs := IncDetect(r, c, pli, []int{tid})
	if len(vs) != 0 {
		t.Errorf("IncDetect should ignore untouched groups: %v", vs)
	}
}

func TestNormalize(t *testing.T) {
	s := custSchema(t)
	c := MustParse("cfd phi2: cust([CC='01', AC='908', PN] -> [STR, CT='mh', ZIP])", s)
	ns := c.Normalize()
	if len(ns) != 3 {
		t.Fatalf("normalize count = %d", len(ns))
	}
	for _, n := range ns {
		if len(n.RHS()) != 1 {
			t.Errorf("normalized CFD has RHS %v", n.RHSNames())
		}
		if n.Rows() != 1 {
			t.Errorf("normalized CFD rows = %d", n.Rows())
		}
	}
	// Detection semantics preserved: violations of the original equal the
	// union over the normalized ones.
	r := custData(t)
	r.Set(4, s.MustIndex("CT"), relation.String("nyc"))
	orig, _ := DetectOne(r, c)
	var split []Violation
	for _, n := range ns {
		vs, _ := DetectOne(r, n)
		split = append(split, vs...)
	}
	if len(ViolatingTIDs(orig)) != len(ViolatingTIDs(split)) {
		t.Errorf("normalize changed detection: %v vs %v", orig, split)
	}
}

func TestString(t *testing.T) {
	s := custSchema(t)
	c := MustParse("cfd phi1: cust([CC='44', ZIP] -> [STR])", s)
	out := c.String()
	if !strings.Contains(out, "phi1") || !strings.Contains(out, "'44'") || !strings.Contains(out, "->") {
		t.Errorf("String() = %s", out)
	}
}
