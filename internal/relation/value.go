// Package relation provides the typed relational substrate used by every
// constraint, repair, discovery and matching module in this repository.
//
// It implements schemas, typed values, tuples, in-memory columnar
// relations, partition indexes and CSV import/export. The design goal is a small but
// complete core on which the SQL-based detection techniques of
// Fan et al. (TODS 2008) and the repair algorithms of Cong et al.
// (VLDB 2007) can be expressed faithfully.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero Kind so that the zero
// Value is the SQL NULL.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name ("string", "int", "float", "null") to a
// Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "str", "text":
		return KindString, nil
	case "int", "integer":
		return KindInt, nil
	case "float", "double", "real":
		return KindFloat, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown kind %q", s)
	}
}

// Value is a typed relational value. The zero Value is NULL.
//
// Value is a comparable struct, so it can be used directly as a map key;
// equality via == coincides with Equal for values of the same kind.
type Value struct {
	kind Kind
	s    string
	n    int64
	f    float64
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(n int64) Value { return Value{kind: KindInt, n: n} }

// Float returns a floating-point value. Negative zero is normalized to
// positive zero: -0.0 == 0.0 (so Identical treats them as one value)
// but they render — and therefore Encode — differently, and the
// code-based grouping fast paths require that Identical values of one
// kind share one encoding.
func Float(f float64) Value {
	if f == 0 {
		f = 0
	}
	return Value{kind: KindFloat, f: f}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.n }

// FloatVal returns the float payload. For KindInt it returns the integer
// converted to float64, which makes numeric comparisons uniform.
func (v Value) FloatVal() float64 {
	if v.kind == KindInt {
		return float64(v.n)
	}
	return v.f
}

// Equal reports whether two values are equal. NULL is not equal to
// anything, including NULL (SQL semantics); use IsNull to test for NULL.
// Numeric values of different kinds compare by numeric value.
func (v Value) Equal(w Value) bool {
	if v.kind == KindNull || w.kind == KindNull {
		return false
	}
	if v.kind == w.kind {
		switch v.kind {
		case KindString:
			return v.s == w.s
		case KindInt:
			return v.n == w.n
		case KindFloat:
			return v.f == w.f
		}
	}
	if v.isNumeric() && w.isNumeric() {
		return v.FloatVal() == w.FloatVal()
	}
	return false
}

// Identical reports whether two values are indistinguishable, treating
// NULL as identical to NULL. This is the notion used for grouping and
// map keys, as opposed to the SQL equality of Equal.
func (v Value) Identical(w Value) bool {
	if v.kind == KindNull && w.kind == KindNull {
		return true
	}
	return v.Equal(w)
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsNaN reports whether v is a floating NaN — the one value that is
// never Identical to itself, and therefore the one case where equal
// dictionary codes cannot certify agreement (code-compare fast paths
// must fall back to Identical for it).
func (v Value) IsNaN() bool {
	return v.kind == KindFloat && v.f != v.f
}

// Compare returns -1, 0 or +1 ordering v relative to w. NULL sorts before
// everything; across kinds the order is null < numeric < string.
func (v Value) Compare(w Value) int {
	if v.kind == KindNull || w.kind == KindNull {
		switch {
		case v.kind == KindNull && w.kind == KindNull:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.isNumeric() && w.isNumeric() {
		a, b := v.FloatVal(), w.FloatVal()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.isNumeric() != w.isNumeric() {
		if v.isNumeric() {
			return -1
		}
		return 1
	}
	return strings.Compare(v.s, w.s)
}

// String renders the value for display. NULL renders as "⊥".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "?"
	}
}

// Encode appends a self-delimiting, prefix-free binary encoding of v to
// dst, used for composite grouping keys (and as the interning key of the
// columnar dictionaries, so per-column codes coincide with Encode
// equality). Within a single kind (plus NULL) the encoding agrees
// exactly with Identical: equal values encode equally and distinct
// values encode distinctly. Across numeric kinds, Int(9) and Float(9)
// are Identical but encode differently; relation columns are
// kind-uniform by construction (Insert coerces ints into float columns
// and rejects other mixtures), so per-column keys are exact —
// TestInternNoIdenticalCollision and TestPLIMatchesHashIndex are the
// regression tests for this invariant, and Relation.LookupCode handles
// the residual mixed-kind case (unchecked Set writes) explicitly.
//
// Prefix-freedom (strings are length-prefixed with a ':' delimiter that
// can never be a length digit; numbers are fixed-width 8-byte payloads;
// the kind byte leads) guarantees that comparing concatenated keys
// lexicographically equals comparing them component-wise, which BuildPLI
// relies on to order groups without materializing keys.
//
// For numeric kinds the encoding is additionally ORDER-PRESERVING: for
// two values of one numeric kind, lexicographic byte order of the
// encodings equals numeric order (ints via big-endian two's complement
// with the sign bit flipped; floats via the IEEE 754 total-order bit
// trick, with Float's -0 → +0 normalization keeping the map injective,
// and NaN sorting after +Inf). NULL's lone kind byte 0 sorts before
// every non-NULL encoding, matching Value.Compare. Relation.codeRanks
// therefore ranks null-or-numeric columns in exact value order — the
// guarantee the denial-constraint inequality sweeps (internal/dc) build
// on, property-tested by TestCodeRankOrderMatchesValueOrder. String
// encodings are NOT order-preserving (the length prefix trades order
// for cheap prefix-freedom), which is why the DC compiler restricts
// order predicates to numeric columns.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindString:
		dst = append(dst, strconv.Itoa(len(v.s))...)
		dst = append(dst, ':')
		dst = append(dst, v.s...)
	case KindInt:
		dst = appendOrdered64(dst, uint64(v.n)^(1<<63))
	case KindFloat:
		bits := math.Float64bits(v.f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negatives: reverse order, below positives
		} else {
			bits |= 1 << 63 // positives: above all negatives
		}
		dst = appendOrdered64(dst, bits)
	}
	return dst
}

// appendOrdered64 appends x big-endian, so byte-lexicographic order of
// the encodings equals numeric order of the (order-mapped) payloads.
func appendOrdered64(dst []byte, x uint64) []byte {
	return append(dst,
		byte(x>>56), byte(x>>48), byte(x>>40), byte(x>>32),
		byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
}

// DecodeValue inverts Value.Encode: it reads one encoded value from the
// front of b and returns it together with the number of bytes consumed.
// Because the encoding is prefix-free and injective (for values as
// normalized by the constructors — Float's -0 → +0), Encode→DecodeValue
// round-trips exactly, including NaN bit patterns and int64s beyond
// float64 precision. This is what the scatter-gather wire format builds
// on: shipping rows and boundary-group members as concatenated Encode
// keys transports values with no JSON float64 or string-parse loss.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null(), 0, fmt.Errorf("relation: decoding value from empty input")
	}
	switch Kind(b[0]) {
	case KindNull:
		return Null(), 1, nil
	case KindString:
		i := 1
		for i < len(b) && b[i] != ':' {
			i++
		}
		if i == len(b) {
			return Null(), 0, fmt.Errorf("relation: string encoding missing length delimiter")
		}
		n, err := strconv.Atoi(string(b[1:i]))
		if err != nil || n < 0 {
			return Null(), 0, fmt.Errorf("relation: bad string length %q", b[1:i])
		}
		if n > len(b)-i-1 { // not i+1+n > len(b): a huge n would wrap
			return Null(), 0, fmt.Errorf("relation: string encoding truncated: need %d payload bytes, have %d", n, len(b)-i-1)
		}
		return String(string(b[i+1 : i+1+n])), i + 1 + n, nil
	case KindInt:
		if len(b) < 9 {
			return Null(), 0, fmt.Errorf("relation: int encoding truncated")
		}
		return Int(int64(readOrdered64(b[1:]) ^ (1 << 63))), 9, nil
	case KindFloat:
		if len(b) < 9 {
			return Null(), 0, fmt.Errorf("relation: float encoding truncated")
		}
		bits := readOrdered64(b[1:])
		if bits&(1<<63) != 0 {
			bits ^= 1 << 63 // positives: clear the forced sign bit
		} else {
			bits = ^bits // negatives: undo the full complement
		}
		// Bypass Float()'s -0 normalization: the encoder only ever sees
		// already-normalized payloads, so bit-exact reconstruction (NaN
		// payloads included) is the correct inverse.
		return Value{kind: KindFloat, f: math.Float64frombits(bits)}, 9, nil
	default:
		return Null(), 0, fmt.Errorf("relation: unknown value kind byte %d", b[0])
	}
}

func readOrdered64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// EncodeTuple appends the concatenated Encode keys of all values of t —
// the wire form of one row for shard transport (decode with
// DecodeTuple). Prefix-freedom makes the concatenation self-delimiting.
func EncodeTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// DecodeTuple inverts EncodeTuple for a tuple of the given arity,
// requiring the input to be fully consumed.
func DecodeTuple(b []byte, arity int) (Tuple, error) {
	t := make(Tuple, arity)
	for i := 0; i < arity; i++ {
		v, n, err := DecodeValue(b)
		if err != nil {
			return nil, fmt.Errorf("relation: decoding tuple value %d: %w", i, err)
		}
		t[i] = v
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after decoding %d-ary tuple", len(b), arity)
	}
	return t, nil
}

// ParseValue parses s into a value of the requested kind. The empty
// string parses as NULL for every kind.
func ParseValue(s string, kind Kind) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch kind {
	case KindString:
		return String(s), nil
	case KindInt:
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parsing %q as int: %w", s, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parsing %q as float: %w", s, err)
		}
		return Float(f), nil
	case KindNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("relation: cannot parse into kind %v", kind)
	}
}
