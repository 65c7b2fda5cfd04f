package relation

import (
	"math"
	"reflect"
	"testing"
)

// TestDecodeValueRoundTrip pins DecodeValue as the exact inverse of
// Encode across every kind, including the values whose JSON or string
// forms are lossy: NaN, ±Inf, -0 (normalized at construction), int64s
// beyond float64 precision, and strings containing delimiters.
func TestDecodeValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null(),
		String(""),
		String("plain"),
		String("with:colon and 12:34 digits"),
		String("unicode ⊥ λ"),
		Int(0),
		Int(1),
		Int(-1),
		Int(math.MaxInt64),
		Int(math.MinInt64),
		Int(1<<53 + 1), // not representable in float64
		Float(0),
		Float(math.Copysign(0, -1)), // normalized to +0 by Float()
		Float(1.5),
		Float(-271.25),
		Float(math.Inf(1)),
		Float(math.Inf(-1)),
		Float(math.NaN()),
		Float(math.SmallestNonzeroFloat64),
		Float(math.MaxFloat64),
	}
	for _, v := range vals {
		enc := v.Encode(nil)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("DecodeValue(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		// Bit-exact comparison: re-encoding must reproduce the input
		// (Identical treats NaN as never equal, so compare encodings).
		if string(got.Encode(nil)) != string(enc) {
			t.Fatalf("round trip of %v produced %v", v, got)
		}
		if got.Kind() != v.Kind() {
			t.Fatalf("round trip of %v changed kind to %v", v, got.Kind())
		}
	}
}

func TestDecodeValueErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(KindString)},                // missing delimiter
		{byte(KindString), '5', ':', 'a'}, // truncated payload
		{byte(KindString), 'x', ':'},      // non-numeric length
		append([]byte{byte(KindString)}, "9223372036854775807:a"...), // a length that wraps when added to its offset
		{byte(KindInt), 1, 2, 3},                                     // truncated int
		{byte(KindFloat), 1, 2, 3, 4, 5, 6, 7},                       // truncated float
		{42},                                                         // unknown kind
	}
	for i, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("case %d: DecodeValue(%v) succeeded, want error", i, b)
		}
	}
}

// TestTupleCodec round-trips whole rows, including a kind-mismatched
// cell like the ones unchecked Set writes leave behind — the shard
// ingest path must carry those exactly.
func TestTupleCodec(t *testing.T) {
	rows := []Tuple{
		{String("a"), Int(3), Float(1.5)},
		{Null(), Null(), Null()},
		{String("x:y"), Float(2), Int(7)}, // mixed-kind cells vs a (string,int,float) schema
	}
	for _, row := range rows {
		enc := EncodeTuple(nil, row)
		got, err := DecodeTuple(enc, len(row))
		if err != nil {
			t.Fatalf("DecodeTuple(%v): %v", row, err)
		}
		if string(EncodeTuple(nil, got)) != string(enc) {
			t.Fatalf("tuple round trip of %v produced %v", row, got)
		}
	}
	if _, err := DecodeTuple(EncodeTuple(nil, rows[0]), 2); err == nil {
		t.Fatal("DecodeTuple with trailing bytes succeeded, want error")
	}
	if _, err := DecodeTuple(nil, 1); err == nil {
		t.Fatal("DecodeTuple of empty input succeeded, want error")
	}
}

// TestAppendGroupKey pins the key as the concatenation of the cells'
// Encode keys — the invariant that makes per-shard keys comparable
// across relations that interned the same values in different orders.
func TestAppendGroupKey(t *testing.T) {
	schema := MustSchema("g",
		Attribute{Name: "A", Kind: KindString},
		Attribute{Name: "B", Kind: KindInt},
	)
	r := New(schema)
	r.MustInsert(Tuple{String("x"), Int(4)})
	r.MustInsert(Tuple{String("y"), Int(4)})
	r.MustInsert(Tuple{String("x"), Int(4)})

	// Same values in a different interning order on a second relation.
	r2 := New(schema)
	r2.MustInsert(Tuple{String("y"), Int(4)})
	r2.MustInsert(Tuple{String("x"), Int(4)})

	attrs := []int{0, 1}
	want := Int(4).Encode(String("x").Encode(nil))
	if got := r.AppendGroupKey(nil, 0, attrs); string(got) != string(want) {
		t.Fatalf("AppendGroupKey = %q, want concatenated encodings %q", got, want)
	}
	if string(r.AppendGroupKey(nil, 0, attrs)) != string(r.AppendGroupKey(nil, 2, attrs)) {
		t.Fatal("agreeing tuples produced different group keys")
	}
	if string(r.AppendGroupKey(nil, 0, attrs)) == string(r.AppendGroupKey(nil, 1, attrs)) {
		t.Fatal("disagreeing tuples produced the same group key")
	}
	if string(r.AppendGroupKey(nil, 0, attrs)) != string(r2.AppendGroupKey(nil, 1, attrs)) {
		t.Fatal("cross-relation keys diverge for identical values")
	}
}

// TestInsertUnchecked pins the exact-reproduction contract: a shard
// relation rebuilt via InsertUnchecked from another relation's tuples
// produces identical tuples and identical group keys, even with
// kind-mismatched cells from unchecked Sets.
func TestInsertUnchecked(t *testing.T) {
	schema := MustSchema("u",
		Attribute{Name: "A", Kind: KindString},
		Attribute{Name: "B", Kind: KindInt},
	)
	src := New(schema)
	src.MustInsert(Tuple{String("a"), Int(1)})
	src.MustInsert(Tuple{String("b"), Int(1)})
	src.Set(1, 1, Float(1)) // mixed-kind cell: Float in the int column

	dst := New(schema)
	for tid := 0; tid < src.Len(); tid++ {
		if got := dst.InsertUnchecked(src.Tuple(tid).Clone()); got != tid {
			t.Fatalf("InsertUnchecked returned tid %d, want %d", got, tid)
		}
	}
	for tid := 0; tid < src.Len(); tid++ {
		if !reflect.DeepEqual(src.Tuple(tid), dst.Tuple(tid)) {
			t.Fatalf("tuple %d diverges: %v vs %v", tid, src.Tuple(tid), dst.Tuple(tid))
		}
		for attr := 0; attr < schema.Arity(); attr++ {
			a := src.AppendGroupKey(nil, tid, []int{attr})
			b := dst.AppendGroupKey(nil, tid, []int{attr})
			if string(a) != string(b) {
				t.Fatalf("group key of cell (%d,%d) diverges", tid, attr)
			}
		}
	}
	// A validating Insert would have rejected the mixed-kind cell.
	if _, err := dst.Insert(Tuple{String("c"), Float(2.5)}); err == nil {
		t.Fatal("Insert accepted a float into the int column")
	}
}
