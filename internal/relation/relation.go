package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// column is the interned, columnar shadow of one attribute: every cell
// value is mapped through a per-column dictionary to a dense int32 code,
// and the codes are stored positionally (codes[tid]). Codes are assigned
// in first-appearance order and never reused; two cells carry the same
// code exactly when their values have the same Value.Encode key, which
// is the grouping notion the hash indexes and PLIs are built on.
type column struct {
	codes   []int32          // per-TID code: the column's cells, positionally
	dict    map[string]int32 // Encode key -> code
	values  []Value          // code -> representative value
	encs    []string         // code -> Encode key (needed for rank order)
	version uint64           // bumped on hard code invalidation (reorder, truncate, journal overflow)

	// Patch journal: every in-place Set that changes this column's code
	// is appended here as a (TID, old code, new code) record instead of
	// bumping version, so indexes over the column can catch up by
	// re-homing exactly the patched TIDs (PLI patching) rather than
	// rebuilding. patchSeq counts patches ever recorded (the monotone
	// watermark indexes snapshot); patchLog holds the suffix of records
	// since the last hard invalidation, so a reader at watermark w drains
	// patchLog[w-(patchSeq-len(patchLog)):]. When the log outgrows
	// maxPatchLog the column falls back to the pre-journal behavior —
	// version is bumped (every index over the column rebuilds) and the
	// log is cleared — which bounds journal memory without a consumer
	// registry.
	patchLog []CellPatch
	patchSeq uint64

	// Lazily computed rank cache: ranks[code] is the code's position in
	// the lexicographic order of the encs. Valid while ranksLen equals
	// len(values) — codes are append-only and their keys immutable, so
	// the dictionary size fully determines the ranking. Guarded by
	// rankMu so concurrent PLI builders share one computation.
	rankMu   sync.Mutex
	ranks    []int32
	ranksLen int
}

// CellPatch records one in-place cell rewrite: the TID's code in the
// column changed Old -> New. Journaled by Relation.Set and drained by
// PLI catch-up (see PLI.patch / IndexCache).
type CellPatch struct {
	TID int
	Old int32
	New int32
}

// maxPatchLogFor bounds a column's patch journal: beyond this many
// undrained records the journal is worth less than a rebuild, so Set
// falls back to a hard version bump. Scales with the column so large
// relations tolerate proportionally larger edit bursts.
func maxPatchLogFor(n int) int {
	if n/4 > 1024 {
		return n / 4
	}
	return 1024
}

func newColumn() *column {
	return &column{dict: make(map[string]int32)}
}

func (c *column) clone() *column {
	out := &column{
		codes:    append([]int32(nil), c.codes...),
		dict:     make(map[string]int32, len(c.dict)),
		values:   append([]Value(nil), c.values...),
		encs:     append([]string(nil), c.encs...),
		version:  c.version,
		patchLog: append([]CellPatch(nil), c.patchLog...),
		patchSeq: c.patchSeq,
	}
	for k, v := range c.dict {
		out.dict[k] = v
	}
	// Rank slices are immutable once published; the clone can share them.
	c.rankMu.Lock()
	out.ranks, out.ranksLen = c.ranks, c.ranksLen
	c.rankMu.Unlock()
	return out
}

// Relation is an in-memory table: a schema plus one interned column per
// attribute. Per-column dictionaries assign each distinct value a dense
// int32 code, and a row is nothing but its codes: cell (tid, attr) is
// the column's representative value of codes[tid], which is exact
// because Value.Encode is injective (two values share a code only when
// they are bit-identical). Tuple identifiers (TIDs) are row positions
// and are stable under in-place cell updates, which is what the repair
// algorithms require. Group-wise algorithms (violation detection,
// partition indexes) consume the codes instead of re-encoding values
// into string keys; see BuildPLI.
type Relation struct {
	schema  *Schema
	cols    []*column
	version uint64
	appends uint64 // count of tuples ever appended (the append watermark)
	scratch []byte // Encode buffer reused by intern; guarded by the caller's write side
}

// New creates an empty relation over the given schema.
func New(schema *Schema) *Relation {
	r := &Relation{schema: schema, cols: make([]*column, schema.Arity())}
	for i := range r.cols {
		r.cols[i] = newColumn()
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples. A schema has at least one
// attribute, so the first column's length is the row count.
func (r *Relation) Len() int { return len(r.cols[0].codes) }

// Version returns the relation's mutation counter: it increases on every
// Insert, Truncate, reorder, and on every Set that actually changes a
// cell's code. Index structures snapshot it (or the finer per-column
// counters) to detect staleness.
func (r *Relation) Version() uint64 { return r.version }

// ColumnVersion returns the hard-invalidation counter of a single
// column. Reorders and Truncate bump every column, and a Set whose
// patch journal overflows bumps the touched one; an ordinary Set does
// NOT bump it — the cell rewrite goes into the column's patch journal
// (PatchVersion/PatchesSince) and indexes re-home the patched TIDs
// instead of rebuilding. Insert bumps NO column version either:
// appending rows changes no existing code, so an index distinguishes
// "rows appended" (length watermark lags Len — absorbable via
// PLI.advance), "cells patched" (patch watermark lags PatchVersion —
// absorbable via PLI patching), and "codes hard-invalidated" (version
// mismatch — a rebuild).
func (r *Relation) ColumnVersion(attr int) uint64 { return r.cols[attr].version }

// AppendVersion returns the number of tuples ever appended — the
// monotone watermark that, together with the per-column code versions,
// splits staleness into "grew by appends" and "mutated in place".
func (r *Relation) AppendVersion() uint64 { return r.appends }

// Tuple returns a fresh copy of the tuple with the given TID; writing
// into it does not change the relation (use Set). Reading one cell is
// Get, which allocates nothing.
func (r *Relation) Tuple(tid int) Tuple {
	t := make(Tuple, len(r.cols))
	for a, c := range r.cols {
		t[a] = c.values[c.codes[tid]]
	}
	return t
}

// Tuples returns a fresh copy of every tuple, in TID order, carved from
// one backing array; writing into them does not change the relation.
func (r *Relation) Tuples() []Tuple {
	n, k := r.Len(), len(r.cols)
	cells := make([]Value, n*k)
	for a, c := range r.cols {
		for tid, code := range c.codes {
			cells[tid*k+a] = c.values[code]
		}
	}
	out := make([]Tuple, n)
	for tid := range out {
		out[tid] = cells[tid*k : (tid+1)*k : (tid+1)*k]
	}
	return out
}

// intern maps v to its dense code in column attr, allocating a new code
// on first appearance. It must only be called from the relation's write
// path (it reuses a shared scratch buffer).
func (r *Relation) intern(attr int, v Value) int32 {
	c := r.cols[attr]
	r.scratch = v.Encode(r.scratch[:0])
	if code, ok := c.dict[string(r.scratch)]; ok {
		return code
	}
	code := int32(len(c.values))
	key := string(r.scratch)
	c.dict[key] = code
	c.values = append(c.values, v)
	c.encs = append(c.encs, key)
	return code
}

// coerce applies the schema's kind coercion to a value destined for
// column attr: integers are accepted into float columns. Other
// mismatches are returned unchanged (Insert rejects them; Set stores
// them as-is, matching its historical unchecked behavior).
func (r *Relation) coerce(attr int, v Value) Value {
	if !v.IsNull() && v.Kind() == KindInt && r.schema.Attr(attr).Kind == KindFloat {
		return Float(v.FloatVal())
	}
	return v
}

// Insert validates and appends a tuple, returning its TID. The tuple must
// have the schema's arity, and each non-NULL value must have the declared
// kind (integers are accepted into float columns and stored as floats).
// The relation keeps the tuple's codes, not the tuple: the caller's
// slice is neither retained nor written.
func (r *Relation) Insert(t Tuple) (int, error) {
	if len(t) != r.schema.Arity() {
		return 0, fmt.Errorf("relation %s: inserting tuple of arity %d into schema of arity %d",
			r.schema.Name(), len(t), r.schema.Arity())
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		want := r.schema.Attr(i).Kind
		if v.Kind() == want {
			continue
		}
		if want == KindFloat && v.Kind() == KindInt {
			continue // coerced below
		}
		return 0, fmt.Errorf("relation %s: attribute %s expects %v, got %v (%s)",
			r.schema.Name(), r.schema.Attr(i).Name, want, v.Kind(), v)
	}
	tid := r.Len()
	for i, v := range t {
		c := r.cols[i]
		// Appends deliberately leave c.version alone: no existing code
		// changed, and PLIs detect growth through the length watermark
		// (and absorb it incrementally, see PLI.advance).
		c.codes = append(c.codes, r.intern(i, r.coerce(i, v)))
	}
	r.version++
	r.appends++
	return tid, nil
}

// Truncate discards every tuple with TID >= n — the rollback primitive
// for failed appends (engine.Session.Append). Interned codes stay
// allocated (codes are never reclaimed; the dropped rows' values simply
// keep their dictionary slots). Every column version is bumped: an index
// that absorbed the dropped rows must not be mistaken for fresh if the
// relation later grows back to its length with different tuples.
func (r *Relation) Truncate(n int) {
	if n < 0 || n >= r.Len() {
		return
	}
	for _, c := range r.cols {
		c.codes = c.codes[:n]
		c.version++
		// The version bump strands every index watermark, so journaled
		// patches (including patches against the dropped rows) can be
		// discarded wholesale — this is what makes Truncate a complete
		// rollback for an append whose repair already emitted patches.
		c.patchLog = nil
	}
	r.version++
}

// InsertUnchecked appends a tuple with no kind validation or coercion:
// every value is stored exactly as given, mirroring Set's historical
// unchecked write semantics. It exists for shard ingest — a worker
// reconstructing its TID-range slice from exact-encoded rows
// (EncodeTuple/DecodeTuple) must reproduce the source relation's cells
// bit for bit, including kind-mismatched cells an unchecked Set put
// there, or its dictionary codes (and therefore its group keys) would
// diverge from the coordinator's. The tuple must have the schema's
// arity; everything else is the caller's contract. Like Insert, it keeps
// the codes and not the slice.
func (r *Relation) InsertUnchecked(t Tuple) int {
	tid := r.Len()
	for i, v := range t {
		c := r.cols[i]
		c.codes = append(c.codes, r.intern(i, v))
	}
	r.version++
	r.appends++
	return tid
}

// AppendGroupKey appends the concatenated Encode keys of tid's values on
// the listed attributes — the composite grouping key of the PLI over
// those attributes, materialized. Two TIDs (of this or ANY relation over
// compatible columns) share a key exactly when they agree under the
// code-grouping notion on every listed attribute, and PLI group order is
// the lexicographic order of these keys (see BuildPLI), which makes the
// key the global merge identity AND merge order for scatter-gather
// detection across shard relations.
func (r *Relation) AppendGroupKey(dst []byte, tid int, attrs []int) []byte {
	for _, a := range attrs {
		c := r.cols[a]
		dst = append(dst, c.encs[c.codes[tid]]...)
	}
	return dst
}

// MustInsert inserts a tuple and panics on validation failure. Intended
// for tests and generators where the tuple shape is statically correct.
func (r *Relation) MustInsert(t Tuple) int {
	tid, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return tid
}

// Set overwrites a single cell, keeping the columnar codes in sync.
// Integer values written into float columns are coerced like Insert
// does, so columns stay kind-uniform. Writing a value whose code equals
// the cell's current code (an encode-identical value) is a no-op for
// versioning: indexes over the column remain valid.
//
// A code-changing Set no longer bumps the column version: it appends a
// (TID, old, new) record to the column's patch journal instead, so a
// PLI over the column stays reachable — its next cache lookup re-homes
// exactly the patched TIDs (O(group) per patch) instead of rebuilding
// the partition. Only when the journal outgrows its cap does Set fall
// back to the hard version bump. Truncate and reorders still bump every
// column version unconditionally, which is what keeps the
// append-rollback path (engine.Session.Append) correct: rolled-back
// patches can never be mistaken for applicable ones.
func (r *Relation) Set(tid, attr int, v Value) {
	v = r.coerce(attr, v)
	code := r.intern(attr, v)
	c := r.cols[attr]
	if c.codes[tid] == code {
		return
	}
	old := c.codes[tid]
	c.codes[tid] = code
	if len(c.patchLog) >= maxPatchLogFor(len(c.codes)) {
		// Journal overflow: too many undrained patches to be worth
		// replaying. Invalidate the column the old way and start a fresh
		// journal epoch (the version mismatch makes stale watermarks
		// unreachable, so the log can be dropped).
		c.version++
		c.patchLog = c.patchLog[:0]
	} else {
		c.patchLog = append(c.patchLog, CellPatch{TID: tid, Old: old, New: code})
		c.patchSeq++
	}
	r.version++
}

// PatchVersion returns the column's patch-journal watermark: the count
// of code-changing Sets ever journaled on attr. An index snapshots it
// at build time and drains PatchesSince(attr, snapshot) to catch up.
func (r *Relation) PatchVersion(attr int) uint64 { return r.cols[attr].patchSeq }

// PatchesSince returns the column's journaled patches with sequence
// numbers >= since, in application order, and whether the journal still
// retains that suffix (false after a hard invalidation discarded it —
// the caller must rebuild; the accompanying version bump makes that
// case visible to fresh/advanceableTo as well). The returned slice
// aliases the journal: callers must drain it before releasing whatever
// exclusion kept Set away (the session write-lock discipline).
func (r *Relation) PatchesSince(attr int, since uint64) ([]CellPatch, bool) {
	c := r.cols[attr]
	base := c.patchSeq - uint64(len(c.patchLog))
	if since < base {
		return nil, false
	}
	return c.patchLog[since-base:], true
}

// Get reads a single cell: the representative value of its code.
func (r *Relation) Get(tid, attr int) Value {
	c := r.cols[attr]
	return c.values[c.codes[tid]]
}

// Code returns the dense dictionary code of cell (tid, attr). Two cells
// of the same column carry equal codes exactly when their values encode
// identically (Value.Encode), which for kind-uniform columns coincides
// with Value.Identical.
func (r *Relation) Code(tid, attr int) int32 { return r.cols[attr].codes[tid] }

// ColumnCodes returns the code column for attr. The slice aliases
// relation storage and must be treated as read-only; it is invalidated
// by Insert (growth) but not by Set (in-place).
func (r *Relation) ColumnCodes(attr int) []int32 { return r.cols[attr].codes }

// DistinctCodes returns the number of codes ever allocated in the
// column. Codes are never reclaimed, so this is an upper bound on (and
// after inserts without overwrites, equal to) the number of distinct
// values in the column.
func (r *Relation) DistinctCodes(attr int) int { return len(r.cols[attr].values) }

// CodeValue returns the representative value of a code in column attr.
func (r *Relation) CodeValue(attr int, code int32) Value { return r.cols[attr].values[code] }

// LookupCode finds the code(s) of column attr whose stored values are
// Identical to v. It probes the exact encoding of v and, for numeric v,
// the cross-kind twin (Int(9) vs Float(9) are Identical but encode
// differently). Returns the matching code, whether any match exists, and
// whether the match is unique — with a kind-uniform column (the Insert
// invariant) it always is; a Set-injected mixed column can hold two
// Identical values under distinct codes, reported as !unique. NaN never
// matches (Identical is false even for NaN vs NaN).
func (r *Relation) LookupCode(attr int, v Value) (code int32, ok, unique bool) {
	if v.IsNull() {
		// NULL is Identical only to NULL, which encodes uniquely.
		if c, found := r.lookupEnc(attr, v); found {
			return c, true, true
		}
		return 0, false, true
	}
	if v.Kind() == KindFloat && v.FloatVal() != v.FloatVal() { // NaN
		return 0, false, true
	}
	code, ok = r.lookupEnc(attr, v)
	var twin Value
	switch v.Kind() {
	case KindInt:
		twin = Float(v.FloatVal())
	case KindFloat:
		f := v.FloatVal()
		n := int64(f)
		if float64(n) != f {
			return code, ok, true
		}
		twin = Int(n)
	default:
		return code, ok, true
	}
	tcode, tok := r.lookupEnc(attr, twin)
	switch {
	case ok && tok:
		return code, true, false
	case tok:
		return tcode, true, true
	default:
		return code, ok, true
	}
}

// lookupEnc finds the code of the exact encoding of v in column attr.
// Unlike intern it allocates nothing shared, so it is safe on the
// concurrent read path.
func (r *Relation) lookupEnc(attr int, v Value) (int32, bool) {
	var buf [48]byte
	key := v.Encode(buf[:0])
	code, ok := r.cols[attr].dict[string(key)]
	return code, ok
}

// codeRanks returns, for column attr, the rank of every code under the
// lexicographic order of the codes' Encode keys. Because the encoding is
// prefix-free, comparing composite keys component-wise by these ranks
// agrees exactly with comparing the concatenated string keys (see
// BuildPLI), which is what keeps PLI group order byte-compatible with
// HashIndex.Keys(). The ranking is cached on the column and reused until
// the dictionary grows, so steady-state index builds sort nothing; when
// it does grow (appends or edits interning unseen values), only the new
// codes are sorted and merged into the existing order — O(old + new·log
// new) instead of re-sorting the whole dictionary.
func (r *Relation) codeRanks(attr int) []int32 {
	c := r.cols[attr]
	c.rankMu.Lock()
	defer c.rankMu.Unlock()
	if c.ranksLen == len(c.values) {
		return c.ranks
	}
	old := c.ranksLen
	fresh := make([]int32, len(c.values)-old)
	for i := range fresh {
		fresh[i] = int32(old + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int { return cmp.Compare(c.encs[a], c.encs[b]) })
	// Published rank slices are immutable (clones share them), so the
	// extended ranking goes into a fresh allocation.
	ranks := make([]int32, len(c.values))
	if old == 0 {
		for rank, code := range fresh {
			ranks[code] = int32(rank)
		}
	} else {
		// Recover the old sorted order from the cached ranks and merge
		// the sorted new codes into it. Encode keys are unique per code,
		// so there are no ties to break.
		order := make([]int32, old)
		for code := 0; code < old; code++ {
			order[c.ranks[code]] = int32(code)
		}
		oi, fi := 0, 0
		for rank := 0; rank < len(c.values); rank++ {
			var code int32
			switch {
			case oi == len(order):
				code = fresh[fi]
				fi++
			case fi == len(fresh):
				code = order[oi]
				oi++
			case c.encs[fresh[fi]] < c.encs[order[oi]]:
				code = fresh[fi]
				fi++
			default:
				code = order[oi]
				oi++
			}
			ranks[code] = int32(rank)
		}
	}
	c.ranks, c.ranksLen = ranks, len(c.values)
	return ranks
}

// CodeRanks returns, for column attr, the rank of every code under the
// lexicographic order of the codes' Encode keys (ranks[code] is the
// code's position; see codeRanks for the caching and merge behavior).
// Because Encode is order-preserving for NULL and the numeric kinds, a
// kind-uniform null-or-numeric column's ranks agree exactly with
// Value.Compare order of the coded values — the order index the
// denial-constraint inequality sweeps (internal/dc) run on, guaranteed
// by TestCodeRankOrderMatchesValueOrder. For string columns the rank
// order is the length-prefixed encoding order, NOT lexicographic string
// order. The returned slice is immutable and safe to read concurrently;
// it describes the dictionary as of the call (appends interning unseen
// values extend the ranking on the next call).
func (r *Relation) CodeRanks(attr int) []int32 { return r.codeRanks(attr) }

// Clone returns a deep copy of the relation (same schema pointer; the
// schema is immutable). Dictionaries and code columns are copied, so the
// clone's interning evolves independently.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		schema:  r.schema,
		cols:    make([]*column, len(r.cols)),
		version: r.version,
		appends: r.appends,
	}
	for i := range r.cols {
		out.cols[i] = r.cols[i].clone()
	}
	return out
}

// Select returns the TIDs of tuples satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) []int {
	var out []int
	for tid, t := range r.Tuples() {
		if pred(t) {
			out = append(out, tid)
		}
	}
	return out
}

// Distinct returns the number of distinct full tuples.
func (r *Relation) Distinct() int {
	seen := make(map[string]struct{}, r.Len())
	for _, t := range r.Tuples() {
		seen[t.FullKey()] = struct{}{}
	}
	return len(seen)
}

// applyPermutation reorders rows so that new position i holds old
// position perm[i], permuting every code column and bumping all versions
// (TIDs are renumbered, so every index is stale).
func (r *Relation) applyPermutation(perm []int) {
	for a := range r.cols {
		c := r.cols[a]
		codes := make([]int32, len(perm))
		for i, p := range perm {
			codes[i] = c.codes[p]
		}
		c.codes = codes
		c.version++
		c.patchLog = nil // TIDs renumbered; journaled patches are meaningless
	}
	r.version++
}

// SortBy sorts tuples in place by the listed attribute positions
// (ascending, Value.Compare order). TIDs are renumbered; callers holding
// TIDs across a sort must not.
func (r *Relation) SortBy(idxs []int) {
	r.SortStable(func(a, b Tuple) bool {
		for _, idx := range idxs {
			if c := a[idx].Compare(b[idx]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// SortStable stably sorts tuples by an arbitrary comparator (called on
// copies of the rows) and permutes the code columns to match. TIDs are
// renumbered.
func (r *Relation) SortStable(less func(a, b Tuple) bool) {
	rows := r.Tuples()
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return less(rows[perm[i]], rows[perm[j]]) })
	r.applyPermutation(perm)
}

// Head renders the first n tuples as an aligned text table for display.
func (r *Relation) Head(n int) string {
	if n > r.Len() {
		n = r.Len()
	}
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, name := range names {
		widths[i] = len(name)
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		row := make([]string, len(names))
		for j := range row {
			row[j] = r.Get(i, j).String()
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		rows[i] = row
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for k := len(c); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range rows {
		writeRow(row)
	}
	if n < r.Len() {
		fmt.Fprintf(&b, "... (%d more tuples)\n", r.Len()-n)
	}
	return b.String()
}
