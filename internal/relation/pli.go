package relation

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// PLI is a position list index: the partition of a relation's TIDs into
// groups agreeing on a fixed attribute list, computed over the interned
// column codes without materializing string keys. It is the columnar
// successor of the string-keyed HashIndex, which survives as the tests'
// reference — groups are identical to HashIndex buckets
// (codes coincide with Value.Encode keys), and the group order is the
// same sorted-key order, so group-wise algorithms produce byte-identical
// output on either index.
//
// A PLI is exactly two things. The base (pliBase) is the canonical
// partition as BuildPLI emits it — flat, sorted, immutable, on the heap
// or mapped from a segment file. The overlay is everything that happened
// to the relation since the base was built: rows absorbed by advance and
// TIDs re-homed by patch, recorded per touched group. Reads consult
// both; merged folds them into a new base, byte-identical to a
// from-scratch build over the current relation (property-tested), and
// is the only way a base ever comes from another base.
//
// The per-column code versions, patch-journal watermarks and row count
// say which relation state the pair describes: fresh reports an exact
// match, advanceableTo the weaker "stale only by appends".
type PLI struct {
	rel       *Relation
	attrs     []int
	colVers   []uint64
	patchVers []uint64 // per-attr patch-journal watermarks (Relation.PatchVersion)

	// mu serializes the writers — advance, patch, compact and the
	// IndexCache's catchUp. Plain reads (Group, GroupOf, Lookup, ...)
	// stay lock-free; they must not overlap a write to the same PLI.
	// Writes that follow a relation mutation are covered by the session
	// discipline: appends and Sets only happen under an exclusive writer,
	// and readers re-fetch entries inside every shared-lock window, so a
	// stale entry has no live readers when its first lookup catches it
	// up. Folding the overlay of an already-fresh entry has no such
	// guarantee (a GetDelta reader may be iterating it), so catchUp
	// publishes that merge as a new PLI and leaves the receiver alone.
	mu sync.Mutex

	// The promoted fields n, tids, offsets, tidGroup and lookup are the
	// base's: n is the rows the BASE covers, rows() the rows the index
	// covers.
	*pliBase
	ov overlay
}

// pliBase is the immutable half of a PLI: all TIDs in one slice
// partitioned by an offsets table (three allocations for a 100k-group
// index instead of 100k bucket slices), plus the inverse tid → group
// array. No element is written while a reader can see the base, so a
// base is safe to share with lock-free readers (only an in-place fold,
// which runs with none, hands its tid -> group and id -> index arrays
// on to the base it makes), and its arrays may be zero-copy views into
// a read-only mapped segment file — seg is non-nil exactly then, and
// anchors the mapping's lifetime (views do not keep an mmap alive by
// themselves).
type pliBase struct {
	n        int     // rows covered == len(tids) == len(tidGroup)
	tids     []int   // concatenation of all groups; ascending within each
	offsets  []int32 // group g occupies tids[offsets[g]:offsets[g+1]]; never empty
	tidGroup []int32 // tid -> group index
	seg      *Mapping

	// Composite-code key -> stable group id, backing Lookup and the
	// group probes of advance and patch, and the base's own id -> group
	// index array (-1: a group the base dropped). Built on first use
	// from each group's first member (ids are then the group indexes),
	// guarded by lookupMu so concurrent probers share one build. A
	// group's id never changes, so only the exclusive writer writes the
	// map — advance and rehome give a novel key the next id, rehome
	// deletes the key of a group it empties — and a fold only reads it:
	// the merged base shares the map and renumbers the int32 index
	// array (an in-place fold renumbers the map too, but only once
	// dropped ids outnumber the live groups; see reclaimIDs).
	lookupMu sync.Mutex
	lookup   map[string]int32
	index    []int32
}

// groupDelta is the overlay's record for one group.
type groupDelta struct {
	added   []int // TIDs that joined since the base was built, ascending
	removed []int // base members patched away, ascending
}

// overlay is the mutable half of a PLI. A group with a base span is
// found under its index in touched; a group for a composite key the
// base has never seen is a new group, addressed after the base groups
// in arrival order (index = base groups + position in fresh), whose id
// is the base's id count plus that position.
type overlay struct {
	touched map[int32]*groupDelta
	fresh   []*groupDelta
	home    map[int]int32 // base TID patched away from its base group -> current group
	tail    []int32       // group of TID n+i: the rows advance absorbed
	size    int           // TIDs across all added and removed lists
}

// empty reports whether the base alone is the partition.
func (o *overlay) empty() bool { return o.size == 0 && len(o.fresh) == 0 }

// delta returns the record of group g (nb base groups), creating the
// one for a base group on first touch.
func (o *overlay) delta(g int32, nb int) *groupDelta {
	if int(g) >= nb {
		return o.fresh[int(g)-nb]
	}
	d := o.touched[g]
	if d == nil {
		if o.touched == nil {
			o.touched = make(map[int32]*groupDelta)
		}
		d = &groupDelta{}
		o.touched[g] = d
	}
	return d
}

// BuildPLI constructs the partition index of r on the given attribute
// positions by successive refinement: the TID list is partitioned by the
// first attribute's codes, each part is sub-partitioned by the second,
// and so on — a stable counting sort per level, O(n) per attribute plus
// the (cached) per-column code ranking.
//
// Group order: each column's codes are ranked by the lexicographic order
// of their Encode keys (Relation.codeRanks) and each refinement level
// emits sub-groups in rank order, so groups come out ordered
// component-wise by encoded keys. Value.Encode is prefix-free
// (length-prefixed strings, terminator-delimited numbers, leading kind
// byte), so for two distinct composite keys the first differing
// component decides the concatenated string comparison as well —
// component-wise order IS the sorted order of HashIndex.Keys(). Tests
// assert this on randomized relations.
func BuildPLI(r *Relation, attrs []int) *PLI {
	p := &PLI{
		rel:       r,
		attrs:     slices.Clone(attrs),
		colVers:   make([]uint64, len(attrs)),
		patchVers: make([]uint64, len(attrs)),
	}
	for i, a := range attrs {
		p.colVers[i] = r.ColumnVersion(a)
		p.patchVers[i] = r.PatchVersion(a)
	}
	n := r.Len()
	if n == 0 {
		p.pliBase = newPLIBase(nil, []int32{0})
		return p
	}

	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	next := make([]int, n)
	bounds := []int32{0, int32(n)}
	for _, a := range attrs {
		bounds = refineBy(r, a, cur, next, bounds)
		cur, next = next, cur
	}
	p.pliBase = newPLIBase(cur, bounds)
	return p
}

// refineBy sub-partitions (cur, bounds) by attribute a's codes, writing
// the refined TID order into next and returning the refined bounds: one
// stable counting-sort level of the BuildPLI recurrence, reused verbatim
// by intersect. cur is never written, so callers may pass shared
// storage (intersect hands in the parent PLI's tids directly).
func refineBy(r *Relation, a int, cur, next []int, bounds []int32) []int32 {
	codes, ranks := r.ColumnCodes(a), r.codeRanks(a)
	count := make([]int32, r.DistinctCodes(a)) // zero between groups
	newBounds := make([]int32, 1, len(bounds))
	var touched []int32
	for gi := 0; gi+1 < len(bounds); gi++ {
		lo, hi := int(bounds[gi]), int(bounds[gi+1])
		if hi-lo == 1 {
			next[lo] = cur[lo]
			newBounds = append(newBounds, int32(hi))
			continue
		}
		members := cur[lo:hi]
		touched = touched[:0]
		for _, tid := range members {
			c := codes[tid]
			if count[c] == 0 {
				touched = append(touched, c)
			}
			count[c]++
		}
		if len(touched) == 1 {
			copy(next[lo:hi], members)
			newBounds = append(newBounds, int32(hi))
			count[touched[0]] = 0
			continue
		}
		slices.SortFunc(touched, func(a, b int32) int { return cmp.Compare(ranks[a], ranks[b]) })
		// Turn counts into placement cursors (block starts in rank
		// order), then place members stably so TIDs stay ascending.
		pos := int32(lo)
		for _, c := range touched {
			cnt := count[c]
			count[c] = pos
			pos += cnt
		}
		for _, tid := range members {
			c := codes[tid]
			next[count[c]] = tid
			count[c]++
		}
		// After placement each cursor sits at its block's end, which
		// is exactly the sub-group boundary.
		for _, c := range touched {
			newBounds = append(newBounds, count[c])
			count[c] = 0
		}
	}
	return newBounds
}

// newPLIBase wraps a finished partition (tids grouped by offsets, as the
// refinement passes emit them) in a base, filling the inverse tid →
// group array.
func newPLIBase(tids []int, offsets []int32) *pliBase {
	return &pliBase{n: len(tids), tids: tids, offsets: offsets, tidGroup: groupsOf(make([]int32, len(tids)), tids, offsets)}
}

// groupsOf fills dst (one entry per TID) with each TID's group index.
func groupsOf(dst []int32, tids []int, offsets []int32) []int32 {
	for g := 0; g+1 < len(offsets); g++ {
		for _, tid := range tids[offsets[g]:offsets[g+1]] {
			dst[tid] = int32(g)
		}
	}
	return dst
}

// intersect returns the partition index over attrs ∪ {y} (y appended)
// by refining this PLI's groups with one counting-sort pass over y's
// codes — the classic TANE-style partition intersection. The result is
// byte-identical (groups, member order, group order) to
// BuildPLI(r, append(attrs, y)), but costs one refinement level instead
// of len(attrs)+1. An overlay on the receiver is folded first
// (refinement reads the canonical base).
//
// The receiver must still describe its relation (fresh after the
// fold); IndexCache.GetVia catches the parent up before refining.
func (p *PLI) intersect(y int) *PLI {
	p.compact()
	r := p.rel
	out := &PLI{
		rel:       r,
		attrs:     append(slices.Clone(p.attrs), y),
		colVers:   append(slices.Clone(p.colVers), r.ColumnVersion(y)),
		patchVers: append(slices.Clone(p.patchVers), r.PatchVersion(y)),
	}
	if p.n == 0 {
		out.pliBase = newPLIBase(nil, []int32{0})
		return out
	}
	// refinement only reads the parent's TID storage, so it is shared
	// directly instead of copied.
	next := make([]int, p.n)
	out.pliBase = newPLIBase(next, refineBy(r, y, p.tids, next, p.offsets))
	return out
}

// Attrs returns the indexed attribute positions.
func (p *PLI) Attrs() []int { return p.attrs }

// rows returns the number of rows the index covers: the base's plus
// those the overlay absorbed.
func (p *PLI) rows() int { return p.n + len(p.ov.tail) }

// NumGroups returns the number of groups (distinct composite keys),
// the overlay's new groups included.
func (p *PLI) NumGroups() int { return len(p.offsets) - 1 + len(p.ov.fresh) }

// Group returns the TIDs of group g in ascending order. The slice
// aliases index storage unless the overlay touched a base group, which
// comes back as a fresh merge of its base span and its delta. New
// groups follow the base groups in arrival order, not sorted-key order,
// and a group patched empty is an empty slice, until the overlay is
// folded.
func (p *PLI) Group(g int) []int {
	nb := len(p.offsets) - 1
	if g >= nb {
		return p.ov.fresh[g-nb].added
	}
	span := p.tids[p.offsets[g]:p.offsets[g+1]]
	if len(p.ov.touched) == 0 {
		return span
	}
	d := p.ov.touched[int32(g)]
	if d == nil {
		return span
	}
	return mergeTIDs(make([]int, 0, len(span)-len(d.removed)+len(d.added)), span, d.removed, d.added)
}

// mergeTIDs appends to dst the ascending merge of span minus removed
// with added. All three are ascending and removed is a subset of span.
func mergeTIDs(dst, span, removed, added []int) []int {
	if len(removed) == 0 && (len(added) == 0 || added[0] > span[len(span)-1]) {
		return append(append(dst, span...), added...) // rows only ever appended
	}
	for _, tid := range span {
		if len(removed) > 0 && removed[0] == tid {
			removed = removed[1:]
			continue
		}
		for len(added) > 0 && added[0] < tid {
			dst, added = append(dst, added[0]), added[1:]
		}
		dst = append(dst, tid)
	}
	return append(dst, added...)
}

// GroupOf returns the index of the group containing tid (an index past
// the base groups while tid sits in one of the overlay's new groups).
func (p *PLI) GroupOf(tid int) int {
	if tid < len(p.tidGroup) && len(p.ov.home) == 0 {
		return int(p.tidGroup[tid])
	}
	return p.groupOfOverlay(tid)
}

// groupOfOverlay is GroupOf for a TID the overlay may have placed; kept
// apart so the base-only read inlines into scan loops.
func (p *PLI) groupOfOverlay(tid int) int {
	if tid >= p.n {
		return int(p.ov.tail[tid-p.n])
	}
	if g, ok := p.ov.home[tid]; ok {
		return int(g)
	}
	return int(p.tidGroup[tid])
}

// tailLen returns the size of the overlay: TIDs absorbed or re-homed
// since the base was built and not folded into it yet.
func (p *PLI) tailLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ov.size
}

// Lookup returns the TIDs of the group whose indexed attributes hold
// exactly the given values (one per indexed attribute, compared by
// Value.Encode like HashIndex keys — the probe values may come from a
// different relation). It returns nil when no group matches, and reads
// through the overlay like Group. The result may alias index storage.
//
// Like every PLI read, Lookup describes the relation as of build/advance
// time; probe through IndexCache.Get to stay fresh across mutations.
func (p *PLI) Lookup(vals []Value) []int {
	if len(vals) != len(p.attrs) {
		return nil
	}
	var buf [48]byte
	key := make([]byte, 0, 4*len(vals))
	for i, a := range p.attrs {
		code, ok := p.rel.cols[a].dict[string(vals[i].Encode(buf[:0]))]
		if !ok {
			return nil // value never interned: no group can hold it
		}
		key = appendCode(key, code)
	}
	if id, ok := p.keyMap(nil)[string(key)]; ok {
		return p.Group(int(p.groupByID(id)))
	}
	return nil
}

// keyMap returns the base's composite-code -> group id map, building it
// (and the identity id -> index array) on first use from each group's
// first member. pre overlays the relation's codes with the pre-patch
// code per (tid*len(attrs) + attr index) of every journal record the
// index has not applied: such a TID's cell has already changed, but it
// still sits in — and may represent — the group of its old key. Patch
// drains therefore build the map before they re-home anything, which is
// also why no later state needs to: an overlay is never written before
// the map exists, and a merge shares the map with the base it makes.
func (p *PLI) keyMap(pre map[int64]int32) map[string]int32 {
	b := p.pliBase
	b.lookupMu.Lock()
	defer b.lookupMu.Unlock()
	if b.lookup == nil {
		nb := len(b.offsets) - 1
		m, index := make(map[string]int32, nb), make([]int32, nb)
		key := make([]byte, 0, 4*len(p.attrs))
		for g := range index {
			m[string(p.placedKey(key[:0], b.tids[b.offsets[g]], pre))] = int32(g)
			index[g] = int32(g)
		}
		b.lookup, b.index = m, index
	}
	return b.lookup
}

// placedKey appends to dst the composite code key tid was placed under:
// its current codes, overlaid with pre's pre-patch codes (see keyMap).
func (p *PLI) placedKey(dst []byte, tid int, pre map[int64]int32) []byte {
	k := len(p.attrs)
	for i, a := range p.attrs {
		c, patched := pre[int64(tid*k+i)]
		if !patched {
			c = p.rel.cols[a].codes[tid]
		}
		dst = appendCode(dst, c)
	}
	return dst
}

func appendCode(b []byte, c int32) []byte {
	return append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

// groupByID returns the index of the group with stable id id (which
// must be in the key map): a base group through the base's index
// array, else the overlay's new group the id was handed to — ids past
// the array go to new groups in arrival order. Read after keyMap.
func (p *PLI) groupByID(id int32) int32 {
	if int(id) < len(p.index) {
		return p.index[id]
	}
	return int32(len(p.offsets)-1) + id - int32(len(p.index))
}

// groupFor returns the index of the group keyed by the composite code
// key, opening a new group in the overlay when the key has no id yet —
// the key takes the next one. It writes the key map, so only the
// writers (advance, rehome) call it.
func (p *PLI) groupFor(lookup map[string]int32, key []byte) int32 {
	if id, ok := lookup[string(key)]; ok {
		return p.groupByID(id)
	}
	o := &p.ov
	lookup[string(key)] = int32(len(p.index) + len(o.fresh))
	o.fresh = append(o.fresh, &groupDelta{})
	return int32(len(p.offsets) - 2 + len(o.fresh))
}

// fresh reports whether the index still describes r: it was built from
// this relation, the relation has not grown, shrunk or been reordered,
// none of the indexed columns was hard-invalidated, and every journaled
// cell patch on the indexed columns has been applied (see catchUp). A
// PLI over untouched columns survives edits to other columns. Being fresh
// does not imply canonical group order — an advanced or patched index
// carries an overlay until it is folded.
func (p *PLI) fresh(r *Relation) bool {
	return p.patchableTo(r) && p.rows() == r.Len() && p.patchesCurrent(r)
}

// advanceableTo reports whether the index describes a stale-only-by-
// appends snapshot of r: built from this relation, no indexed column
// hard-invalidated and no cell patch pending (no un-drained Set on it,
// no reorder, no Truncate) since the build, and the relation is at
// least as long. A fresh index is trivially advanceable.
func (p *PLI) advanceableTo(r *Relation) bool {
	return p.patchableTo(r) && p.patchesCurrent(r)
}

// patchableTo reports the weakest reachable state: the index can be
// caught up to r by applying journaled cell patches and absorbing
// appended rows — no indexed column was hard-invalidated (reorder,
// Truncate, journal overflow) and the relation did not shrink.
func (p *PLI) patchableTo(r *Relation) bool {
	if p.rel != r || p.rows() > r.Len() {
		return false
	}
	for i, a := range p.attrs {
		if p.colVers[i] != r.ColumnVersion(a) {
			return false
		}
	}
	return true
}

// patchesCurrent reports whether every indexed column's patch journal
// has been fully drained into the index.
func (p *PLI) patchesCurrent(r *Relation) bool {
	for i, a := range p.attrs {
		if p.patchVers[i] != r.PatchVersion(a) {
			return false
		}
	}
	return true
}

// advance absorbs the rows appended to the relation since the index was
// built or last advanced: each new TID joins the overlay record of its
// group, or opens a new group — O(delta) map probes, no counting sort,
// no rebuild. The overlay is folded into canonical sorted-group order
// lazily (see compact), automatically once it outgrows an eighth of the
// index. advance returns false (changing nothing) when the index cannot
// reach r by appending — an indexed column was edited, the relation was
// reordered or truncated, or it is a different relation — and true
// otherwise, including when there is nothing to absorb.
//
// advance, patch and compact write the index and are serialized against
// each other (PLI.mu), but must not overlap lock-free readers of the
// same PLI; direct callers guarantee that by mutating the relation only
// under an exclusive writer, as engine sessions do.
func (p *PLI) advance(r *Relation) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.advanceLocked(r)
}

func (p *PLI) advanceLocked(r *Relation) bool {
	if !p.advanceableTo(r) {
		return false
	}
	from, n := p.rows(), r.Len()
	if n == from {
		return true
	}
	lookup := p.keyMap(nil)
	cols := make([][]int32, len(p.attrs))
	for i, a := range p.attrs {
		cols[i] = r.cols[a].codes
	}
	o, nb := &p.ov, len(p.offsets)-1
	key := make([]byte, 0, 4*len(p.attrs))
	for tid := from; tid < n; tid++ {
		key = key[:0]
		for _, codes := range cols {
			key = appendCode(key, codes[tid])
		}
		g := p.groupFor(lookup, key)
		d := o.delta(g, nb)
		d.added = append(d.added, tid) // above every TID the index covers
		o.tail = append(o.tail, g)
	}
	o.size += n - from
	p.foldIfLargeLocked()
	return true
}

// patch applies one journaled cell patch to the index: cell (tid, attr)
// of the underlying relation changed oldCode -> newCode (a
// relation.CellPatch emitted by Relation.Set), and the TID is re-homed
// to the group matching its current codes — two sorted-slice edits in
// the overlay (a multi-attribute index recomputes the composite key
// from the current column codes), never a rebuild. TIDs the index has
// not absorbed yet are no-ops: the next advance reads their post-patch
// codes anyway. patch advances the index's patch watermark for attr by
// one record, so callers must apply journal records exactly once and in
// journal order (the discipline the IndexCache's catch-up path
// follows); attr must be one of the indexed attributes. Reports whether
// the TID actually moved groups.
//
// patch never folds the overlay: a fold ranks groups by their members'
// current codes, which is only sound once no record is pending.
func (p *PLI) patch(tid, attr int, oldCode, newCode int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := slices.Index(p.attrs, attr)
	if idx < 0 {
		return false
	}
	// The key map (on its first use) and the key tid was placed under
	// are both read under every still-pending record, this one included
	// (see keyMap), so they are gathered before the watermark moves.
	_, pre, _ := p.pendingPatchTIDs(p.rel)
	lookup := p.keyMap(pre)
	p.patchVers[idx]++
	if tid >= p.rows() || oldCode == newCode {
		return false
	}
	return p.rehome(lookup, tid, pre)
}

// pendingPatchTIDs collects the distinct TIDs the index covers
// (ascending) with journaled patches it has not applied, plus an
// overlay of their pre-patch codes per (tid, attr index) — what the
// TID's current group was keyed on (see keyMap). ok is false when some
// journal no longer retains the index's suffix (the entry must be
// rebuilt). Does not mutate the index.
func (p *PLI) pendingPatchTIDs(r *Relation) (tids []int, pre map[int64]int32, ok bool) {
	k, n := int64(len(p.attrs)), p.rows()
	for i, a := range p.attrs {
		log, retained := r.PatchesSince(a, p.patchVers[i])
		if !retained {
			return nil, nil, false
		}
		for _, pc := range log {
			if pc.TID >= n {
				continue // not absorbed yet; advance reads current codes
			}
			if pre == nil {
				pre = make(map[int64]int32)
			}
			tids = append(tids, pc.TID)
			if _, dup := pre[int64(pc.TID)*k+int64(i)]; !dup {
				pre[int64(pc.TID)*k+int64(i)] = pc.Old // earliest record holds the pre-drain code
			}
		}
	}
	slices.Sort(tids)
	return slices.Compact(tids), pre, true
}

// applyPatchesLocked drains the pending journal records gathered by
// pendingPatchTIDs: each patched TID is re-homed to the group matching
// its current codes, and the index's patch watermarks move to the
// journals' heads. Called with p.mu held, under the same no-live-reader
// guarantee as advance (a pending patch implies a Set under an
// exclusive writer since the last reader window).
func (p *PLI) applyPatchesLocked(r *Relation, tids []int, pre map[int64]int32) {
	lookup := p.keyMap(pre)
	for _, tid := range tids {
		p.rehome(lookup, tid, pre)
	}
	for i, a := range p.attrs {
		p.patchVers[i] = r.PatchVersion(a)
	}
	p.foldIfLargeLocked()
}

// rehome moves one TID to the group matching its current codes —
// exactly the group advance would choose for a new row with these
// codes, so a fold restores canonical order. Leaving a group deletes
// the TID from the group's added list, or records a base member in its
// removed list; joining is the inverse, so a TID patched back home
// cancels its own removal. A group the TID leaves empty loses its key
// (its id is never handed out again), so the key map holds exactly the
// live groups; pre gives the key the TID was placed under (see keyMap).
// Reports whether the TID changed groups.
func (p *PLI) rehome(lookup map[string]int32, tid int, pre map[int64]int32) bool {
	key := p.placedKey(make([]byte, 0, 4*len(p.attrs)), tid, nil)
	cur, target := int32(p.GroupOf(tid)), p.groupFor(lookup, key)
	if target == cur {
		return false // already home (duplicate or round-trip patches)
	}
	o, nb := &p.ov, len(p.offsets)-1
	from, to := o.delta(cur, nb), o.delta(target, nb)
	o.size += moveTID(&from.added, &from.removed, tid) + moveTID(&to.removed, &to.added, tid)
	left := len(from.added) - len(from.removed)
	if int(cur) < nb {
		left += int(p.offsets[cur+1] - p.offsets[cur])
	}
	if left == 0 {
		delete(lookup, string(p.placedKey(key[:0], tid, pre)))
	}
	switch {
	case tid >= p.n:
		o.tail[tid-p.n] = target
	case p.tidGroup[tid] == target:
		delete(o.home, tid)
	default:
		if o.home == nil {
			o.home = make(map[int]int32)
		}
		o.home[tid] = target
	}
	return true
}

// moveTID deletes tid from the ascending slice *del if it is there, and
// otherwise inserts it into the ascending slice *ins; it returns the
// change in their combined length.
func moveTID(del, ins *[]int, tid int) int {
	if i, found := slices.BinarySearch(*del, tid); found {
		*del = slices.Delete(*del, i, i+1)
		return -1
	}
	i, _ := slices.BinarySearch(*ins, tid)
	*ins = slices.Insert(*ins, i, tid)
	return 1
}

// compact folds the overlay into the base in place, after which the
// index is byte-identical to BuildPLI over the relation it describes.
// Compacting an index with an empty overlay is a no-op.
func (p *PLI) compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.foldLocked()
}

func (p *PLI) foldLocked() {
	if !p.ov.empty() {
		p.pliBase, p.ov = p.merged(true), overlay{}
		p.reclaimIDs()
	}
}

// reclaimIDs renumbers the key map onto group indexes once dropped
// groups hold more than half of the ids, so the id -> index array
// tracks the live groups instead of every group the index ever dropped.
// Each rewrite is paid for by as many dropped groups. It writes the map,
// which only the in-place fold may: like advance, it runs when no
// reader holds the index or an older base sharing the map.
func (p *PLI) reclaimIDs() {
	b := p.pliBase
	nb := len(b.offsets) - 1
	if b.lookup == nil || len(b.index) <= 2*nb+64 {
		return
	}
	for key, id := range b.lookup {
		b.lookup[key] = b.index[id]
	}
	b.index = make([]int32, nb)
	for g := range b.index {
		b.index[g] = int32(g)
	}
}

// foldIfLargeLocked is the LSM-style threshold: an overlay past an
// eighth of the index is folded without waiting for an order-sensitive
// reader.
func (p *PLI) foldIfLargeLocked() {
	if p.ov.size*8 > p.rows() {
		p.foldLocked()
	}
}

// merged builds the base that describes base + overlay: touched groups
// merge their delta into their span, groups left without members are
// dropped, new groups are spliced in at their canonical code-rank
// position, and the runs of untouched groups in between are bulk
// copies — O(n) memmove plus O(overlay · log groups). The receiver is
// only read; every patch the overlay records must have been applied to
// the relation's codes and none be pending, since groups are ranked by
// their members' current codes. The key map is only read too: ids are
// stable, so the new base shares the map, and its id -> index array is
// the old one when no group index moved, else renumbered by one integer
// pass with the new groups' ids appended. The old and the new base can
// thus serve readers side by side — unless inPlace says the receiver's
// base is about to be dropped, in which case its tid -> group and
// id -> index arrays are rewritten for the new base instead of copied.
func (p *PLI) merged(inPlace bool) *pliBase {
	b, o := p.pliBase, &p.ov
	nb, k := len(b.offsets)-1, len(p.attrs)
	b.lookupMu.Lock()
	lookup, index := b.lookup, b.index
	b.lookupMu.Unlock()
	ranks := make([][]int32, k)
	cols := make([][]int32, k)
	for i, a := range p.attrs {
		ranks[i] = p.rel.codeRanks(a)
		cols[i] = p.rel.ColumnCodes(a)
	}
	// less compares two groups by a member each under the canonical
	// component-wise code-rank order (see BuildPLI); distinct groups
	// always differ in some component.
	less := func(tidA, tidB int) bool {
		for i := 0; i < k; i++ {
			if ra, rb := ranks[i][cols[i][tidA]], ranks[i][cols[i][tidB]]; ra != rb {
				return ra < rb
			}
		}
		return false
	}
	// member returns a current member of base group g, false when the
	// overlay emptied it.
	member := func(g int) (int, bool) {
		span := b.tids[b.offsets[g]:b.offsets[g+1]]
		d := o.touched[int32(g)]
		if d == nil {
			return span[0], true
		}
		i := 0
		for i < len(d.removed) && span[i] == d.removed[i] {
			i++
		}
		if i < len(span) {
			return span[i], true
		}
		if len(d.added) > 0 {
			return d.added[0], true
		}
		return 0, false
	}

	touched := make([]int32, 0, len(o.touched))
	renumber := false // a group is inserted or dropped: later indexes move
	for g, d := range o.touched {
		touched = append(touched, g)
		if int(b.offsets[g+1]-b.offsets[g])-len(d.removed)+len(d.added) == 0 {
			renumber = true
		}
	}
	slices.Sort(touched)
	// fresh lists the arrival positions of the new groups that still
	// have members (patches can empty new groups too), in canonical order.
	fresh := make([]int, 0, len(o.fresh))
	for i, d := range o.fresh {
		if len(d.added) > 0 {
			fresh = append(fresh, i)
			renumber = true
		}
	}
	slices.SortFunc(fresh, func(x, y int) int {
		if less(o.fresh[x].added[0], o.fresh[y].added[0]) {
			return -1
		}
		return 1
	})
	// before[i] is the base group new group i is spliced in front of:
	// the first one with members whose key ranks above it.
	before := make([]int, len(fresh))
	for i, f := range fresh {
		first := o.fresh[f].added[0]
		before[i] = sort.Search(nb, func(g int) bool {
			for ; g < nb; g++ {
				if tid, ok := member(g); ok {
					return less(first, tid)
				}
			}
			return true
		})
	}

	// An in-place fold writes the tid -> group and id -> index arrays
	// where they lie: nothing reads the receiver's base again, and no
	// reader holds another base sharing them. A mapped array is
	// read-only, and a fold into a new PLI leaves the receiver intact.
	n := p.rows()
	tidGroup := b.tidGroup
	switch {
	case inPlace && b.seg == nil:
		tidGroup = slices.Grow(tidGroup, n-len(tidGroup))[:n]
	case renumber:
		tidGroup = make([]int32, n)
	default:
		tidGroup = append(make([]int32, 0, n), tidGroup...)[:n]
	}
	tids := make([]int, 0, n)
	offsets := make([]int32, 1, nb+len(fresh)+1)
	// newIndex maps base group -> index in out, -1 when dropped. It
	// borrows tidGroup's storage (n >= nb), which is refilled only after
	// the ids are renumbered through it.
	var newIndex []int32
	if renumber {
		newIndex = tidGroup[:nb]
	}
	freshIndex := make([]int32, len(fresh))
	done := 0
	copyRun := func(upto int) { // base groups [done, upto) are untouched
		shift := int32(len(tids)) - b.offsets[done]
		tids = append(tids, b.tids[b.offsets[done]:b.offsets[upto]]...)
		for g := done; g < upto; g++ {
			if renumber {
				newIndex[g] = int32(len(offsets) - 1)
			}
			offsets = append(offsets, b.offsets[g+1]+shift)
		}
		done = upto
	}
	for ti, fi := 0, 0; ti < len(touched) || fi < len(fresh); {
		if fi < len(fresh) && (ti == len(touched) || before[fi] <= int(touched[ti])) {
			copyRun(before[fi])
			freshIndex[fi] = int32(len(offsets) - 1)
			tids = append(tids, o.fresh[fresh[fi]].added...)
			offsets = append(offsets, int32(len(tids)))
			fi++
			continue
		}
		g := int(touched[ti])
		copyRun(g)
		d, start := o.touched[int32(g)], len(tids)
		tids = mergeTIDs(tids, b.tids[b.offsets[g]:b.offsets[g+1]], d.removed, d.added)
		if len(tids) > start {
			if renumber {
				newIndex[g] = int32(len(offsets) - 1)
			}
			offsets = append(offsets, int32(len(tids)))
		} else {
			newIndex[g] = -1
		}
		done = g + 1
		ti++
	}
	copyRun(nb)

	if !renumber {
		// Same group indexes: only the TIDs the overlay placed differ.
		for g, d := range o.touched {
			for _, tid := range d.added {
				tidGroup[tid] = g
			}
		}
		return &pliBase{n: n, tids: tids, offsets: offsets, tidGroup: tidGroup, lookup: lookup, index: index}
	}
	ids := index
	if !inPlace {
		ids = make([]int32, len(index), len(index)+len(o.fresh))
	}
	for id, g := range index {
		if g >= 0 {
			g = newIndex[g]
		}
		ids[id] = g
	}
	for range o.fresh { // the new groups' ids, in arrival order
		ids = append(ids, -1)
	}
	for i, f := range fresh {
		ids[len(index)+f] = freshIndex[i]
	}
	return &pliBase{n: n, tids: tids, offsets: offsets, tidGroup: groupsOf(tidGroup, tids, offsets), lookup: lookup, index: ids}
}

// catchUp is IndexCache's entry-revalidation hook: under the PLI's
// mutex, drain any journaled cell patches, absorb any appended rows,
// and — for order-sensitive callers — fold the overlay. out is nil
// when the entry cannot reach r (an indexed column was hard-
// invalidated, the relation was reordered/truncated, a patch journal
// was trimmed past this entry's watermark, the pending patch set is
// large enough that a rebuild is cheaper, or it is a different
// relation); otherwise out is the PLI to hand to the caller, patched
// reports whether journal records were applied, and advanced whether
// rows were absorbed (distinct counters in cache stats, as opposed to
// a pure hit).
//
// out is usually the receiver: staleness of either kind implies an
// exclusive writer (an append or a Set) since the last lookup, which
// implies no reader still holds this PLI (readers re-fetch entries
// inside every shared-lock window), so the overlay is written and
// folded in place. The exception is folding a FRESH entry: a
// delta-tolerant reader (GetDelta) may be iterating its overlay
// lock-free right now, so the merged base goes into a new PLI (out !=
// p) that the cache republishes — the original is never written again.
func (p *PLI) catchUp(r *Relation, compact bool) (out *PLI, advanced, patched bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.patchableTo(r) {
		return nil, false, false
	}
	if !p.patchesCurrent(r) {
		pending, pre, ok := p.pendingPatchTIDs(r)
		if !ok || len(pending)*8 > p.rows() {
			return nil, false, false // journal trimmed, or rebuild is cheaper
		}
		// With nothing pending every journaled record hits rows the
		// index has not absorbed; the advance below reads post-patch
		// codes, so this only moves the watermarks.
		p.applyPatchesLocked(r, pending, pre)
		patched = len(pending) > 0
	}
	if p.rows() < r.Len() {
		p.advanceLocked(r)
		advanced = true
	}
	if compact && !p.ov.empty() && !advanced && !patched {
		return &PLI{
			rel: p.rel, attrs: p.attrs, colVers: p.colVers,
			patchVers: slices.Clone(p.patchVers), pliBase: p.merged(false),
		}, false, false
	}
	if compact {
		p.foldLocked()
	}
	return p, advanced, patched
}

// MemSize estimates the index's resident heap bytes (base arrays,
// overlay and key map) — the unit of IndexCache's byte budget. A base
// mapped from a segment file is excluded: it lives in pageable OS
// memory the kernel reclaims under pressure, not on the Go heap, which
// is exactly the existence → residency repointing that lets a paged-in
// index stay cached at near-zero budget cost.
func (p *PLI) MemSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.pliBase
	sz := int64(96 + 8*len(p.patchVers) + 16*p.ov.size + 4*len(p.ov.tail))
	if b.seg == nil {
		sz += int64(len(b.tids))*8 + int64(len(b.offsets)+len(b.tidGroup))*4
	}
	b.lookupMu.Lock()
	sz += int64(len(b.lookup))*(16+int64(len(p.attrs))*4) + 4*int64(len(b.index))
	b.lookupMu.Unlock()
	return sz
}
