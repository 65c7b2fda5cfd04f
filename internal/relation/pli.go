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
// successor of HashIndex — groups are identical to HashIndex buckets
// (codes coincide with Value.Encode keys), and the group order is the
// same sorted-key order, so group-wise algorithms produce byte-identical
// output on either index.
//
// Storage is flat: all TIDs live in one slice partitioned by an offsets
// table, which keeps a 100k-group index to three allocations instead of
// 100k bucket slices.
//
// A PLI records the per-column code versions of its attributes and a
// length watermark. Fresh reports whether it exactly describes the
// relation; AdvanceableTo reports the weaker "stale only by appends"
// state, which Advance repairs in O(delta) by absorbing the appended
// TIDs into an LSM-style delta tail: a new TID joins the tail of its
// existing group, or opens a provisional new group addressed after the
// base groups. Compact lazily merges the tail back into canonical
// sorted-group order (triggered by a size threshold or by order-
// sensitive readers); after compaction the index is byte-identical to a
// from-scratch build over the grown relation (property-tested).
type PLI struct {
	rel       *Relation
	attrs     []int
	colVers   []uint64
	patchVers []uint64 // per-attr patch-journal watermarks (Relation.PatchVersion)
	n         int
	tids      []int   // concatenation of all base groups; ascending within each
	offsets   []int32 // base group g occupies tids[offsets[g]:offsets[g+1]]
	tidGroup  []int32 // tid -> group index (provisional for tailed new groups)

	// Patch state: cell patches (Relation.Set journal records) re-home
	// individual TIDs between groups in O(group) without rebuilding.
	// Removing a TID from a base group shifts only that group's span and
	// leaves a hole at the span's end (holes[g] counts them; group g's
	// live members are tids[offsets[g] : offsets[g+1]-holes[g]]), and
	// the TID re-enters its target group through the delta-tail
	// machinery (tails / newGroups), inserted in sorted position. dirty
	// records that some patch broke the pure-append tail discipline
	// (tail TIDs no longer all exceed base TIDs, groups may have been
	// patched empty), which routes Group reads through a sorted merge
	// and Compact through the canonical patched rebuild.
	holes   map[int32]int32
	holeCnt int
	dirty   bool

	// TID-range shard layout with per-shard append watermarks: shard i
	// covers TIDs [shardEnds[i-1], shardEnds[i]) (from 0 for shard 0),
	// fixed at shardWidth rows per shard by the build (serial builds
	// are one shard spanning the relation; shardWidth 0 means a single
	// unbounded shard). Advance moves ONLY the tail entries — the
	// watermark of every filled shard is immutable across appends,
	// which is the granularity future per-shard spill and delta-aware
	// invalidation key on. Guarded by mu like the rest of the mutable
	// state (see shard.go).
	shardWidth int
	shardEnds  []int

	// seg is non-nil while the flat storage (tids/offsets/tidGroup) is a
	// zero-copy view into a read-only mapped segment file — the paged-in
	// state of a demoted cache entry (see spill.go). Mapped arrays are
	// immutable: every in-place mutation path materializes heap copies
	// first (materializeLocked), and appends are naturally safe because
	// mapped views are built with cap == len, so the first append
	// reallocates onto the heap. The field also anchors the mapping's
	// lifetime: views do not keep the mmap alive by themselves, the PLI
	// does. Guarded by mu.
	seg *Mapping

	// mu serializes Advance and Compact — the mutating catch-up path the
	// IndexCache drives. Plain reads (Group, GroupOf, Lookup, ...) stay
	// lock-free; they must not overlap an Advance/Compact of the same
	// PLI. Advances are covered by the session discipline: appends only
	// happen under an exclusive writer, and readers re-fetch entries
	// inside every shared-lock window, so a stale entry has no live
	// readers when its first post-append lookup advances it. Compaction
	// of an already-fresh tailed entry has no such guarantee (a GetDelta
	// reader may be iterating the tail), so that case goes copy-on-write
	// (catchUp/compactedCopyLocked) instead of mutating in place.
	mu sync.Mutex

	// Delta tail: rows absorbed by Advance but not yet merged into the
	// flat storage. tails[g] holds the TIDs appended to base group g (in
	// ascending TID order — every tail TID is greater than every base
	// TID, so base++tail is the group's sorted membership); newGroups
	// holds groups for composite keys unseen at build time, in arrival
	// order, addressed by provisional indexes following the base groups.
	tails     map[int32][]int
	newGroups []deltaGroup
	newLookup map[string]int32 // composite code key -> newGroups index
	tailLen   int              // total TIDs across tails and newGroups

	// Lazily built composite-code -> base-group map backing Lookup and
	// Advance's group probes; extended/remapped by Compact instead of
	// discarded. Guarded by lookupMu so concurrent probers share one
	// build.
	lookupMu sync.Mutex
	lookup   map[string]int32
}

// deltaGroup is a provisional group opened by Advance for a composite
// key that had no base group.
type deltaGroup struct {
	key  string // composite code key shared by the members
	tids []int  // members in arrival (= ascending TID) order
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
//
// BuildPLI is the serial build; BuildPLISharded (shard.go) fans the
// counting-sort passes over a worker pool with byte-identical output.
func BuildPLI(r *Relation, attrs []int) *PLI {
	return buildPLI(r, attrs, 1)
}

// refineBy sub-partitions (cur, bounds) by attribute a's codes, writing
// the refined TID order into next and returning the refined bounds: one
// stable counting-sort level of the BuildPLI recurrence, reused verbatim
// by Intersect. cur is never written, so callers may pass shared
// storage (Intersect hands in the parent PLI's tids directly).
func refineBy(r *Relation, a int, cur, next []int, bounds []int32) []int32 {
	count := make([]int32, r.DistinctCodes(a))
	newBounds := make([]int32, 1, len(bounds))
	return refineGroups(r.ColumnCodes(a), r.codeRanks(a), count, cur, next, bounds,
		0, len(bounds)-1, newBounds)
}

// refineGroups is the group loop of refineBy restricted to the group
// index range [gLo, gHi): it writes the refined order of exactly those
// groups' members into next (the regions are disjoint per group, so
// concurrent calls over disjoint ranges never collide) and appends each
// refined sub-group's end position to newBounds. count is caller-owned
// scratch of DistinctCodes size, zeroed on entry and on return — one
// per worker in the chunked parallel refinement (shard.go).
func refineGroups(codes, ranks, count []int32, cur, next []int, bounds []int32, gLo, gHi int, newBounds []int32) []int32 {
	var touched []int32
	for gi := gLo; gi < gHi; gi++ {
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

func (p *PLI) fillTIDGroups() {
	for g := 0; g+1 < len(p.offsets); g++ {
		for _, tid := range p.tids[p.offsets[g]:p.offsets[g+1]] {
			p.tidGroup[tid] = int32(g)
		}
	}
}

// Intersect returns the partition index over attrs ∪ {y} (y appended)
// by refining this PLI's groups with one counting-sort pass over y's
// codes — the classic TANE-style partition intersection. The result is
// byte-identical (groups, member order, group order) to
// BuildPLI(r, append(attrs, y)), but costs one refinement level instead
// of len(attrs)+1. A delta tail on the receiver is compacted first
// (refinement needs the flat canonical storage).
//
// The receiver must still describe its relation (Fresh after the
// compaction); IndexCache.GetVia catches the parent up before refining.
//
// Intersect refines serially; IntersectSharded (shard.go) fans the
// refinement over a worker pool with byte-identical output.
func (p *PLI) Intersect(y int) *PLI {
	return p.IntersectSharded(y, 1)
}

// Attrs returns the indexed attribute positions.
func (p *PLI) Attrs() []int { return p.attrs }

// NumGroups returns the number of groups (distinct composite keys),
// provisional new groups included.
func (p *PLI) NumGroups() int { return len(p.offsets) - 1 + len(p.newGroups) }

// hole returns the number of patched-out slots at the end of base group
// g's span (0 for unpatched indexes).
func (p *PLI) hole(g int32) int32 {
	if p.holes == nil {
		return 0
	}
	return p.holes[g]
}

// Group returns the TIDs of group g in ascending order. For an index
// without a delta tail the slice aliases index storage; a tailed base
// group is returned as a fresh merged slice (base members, then the
// appended tail — still ascending, since appended TIDs exceed all base
// TIDs; when a cell patch re-homed a TID into the tail the two runs are
// merge-sorted instead), and provisional new groups alias the tail
// storage. A group patched empty comes back as an empty slice until the
// next Compact drops it.
func (p *PLI) Group(g int) []int {
	nb := len(p.offsets) - 1
	if g >= nb {
		return p.newGroups[g-nb].tids
	}
	base := p.tids[p.offsets[g] : p.offsets[g+1]-p.hole(int32(g))]
	if p.tailLen == 0 {
		return base
	}
	tail := p.tails[int32(g)]
	if len(tail) == 0 {
		return base
	}
	if !p.dirty {
		out := make([]int, 0, len(base)+len(tail))
		return append(append(out, base...), tail...)
	}
	return mergeSortedTIDs(base, tail)
}

// mergeSortedTIDs merges two ascending TID runs into a fresh ascending
// slice.
func mergeSortedTIDs(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// GroupOf returns the index of the group containing tid (a provisional
// index past the base groups for uncompacted new groups).
func (p *PLI) GroupOf(tid int) int { return int(p.tidGroup[tid]) }

// TailLen returns the number of absorbed-but-uncompacted delta rows.
func (p *PLI) TailLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tailLen
}

// Lookup returns the TIDs of the group whose indexed attributes hold
// exactly the given values (one per indexed attribute, compared by
// Value.Encode like HashIndex keys — the probe values may come from a
// different relation). It returns nil when no group matches, and
// tolerates delta tails (tailed groups come back merged, provisional
// groups by their tail storage). The result may alias index storage.
//
// Like every PLI read, Lookup describes the relation as of build/advance
// time; probe through IndexCache.Get to stay fresh across mutations.
func (p *PLI) Lookup(vals []Value) []int {
	if len(vals) != len(p.attrs) {
		return nil
	}
	var buf [48]byte
	key := make([]byte, 0, 8*len(vals))
	for i, a := range p.attrs {
		code, ok := p.rel.cols[a].dict[string(vals[i].Encode(buf[:0]))]
		if !ok {
			return nil // value never interned: no group can hold it
		}
		key = appendCode(key, code)
	}
	if g, ok := p.baseLookup()[string(key)]; ok {
		return p.Group(int(g))
	}
	if gi, ok := p.newLookup[string(key)]; ok {
		return p.newGroups[gi].tids
	}
	return nil
}

// baseLookup returns the composite-code -> base-group map, materializing
// it from each group's representative TID on first use. Representatives
// are live members (hole-aware, falling back to the group's tail when
// patches emptied the base span); groups patched fully empty get no
// entry, so a later patch or advance interning their key opens a
// provisional group that Compact splices back at the same rank.
func (p *PLI) baseLookup() map[string]int32 {
	return p.baseLookupWith(func(tid, i int) int32 {
		return p.rel.cols[p.attrs[i]].codes[tid]
	})
}

// baseLookupWith is baseLookup with the representative codes read
// through codeAt — the patch-drain path supplies pre-patch codes for
// TIDs whose cells already changed but have not been re-homed yet, so a
// lookup map materialized mid-drain still keys every group correctly.
func (p *PLI) baseLookupWith(codeAt func(tid, i int) int32) map[string]int32 {
	p.lookupMu.Lock()
	defer p.lookupMu.Unlock()
	if p.lookup == nil {
		m := make(map[string]int32, len(p.offsets)-1)
		key := make([]byte, 0, 8*len(p.attrs))
		for g := 0; g+1 < len(p.offsets); g++ {
			lo, hi := p.offsets[g], p.offsets[g+1]-p.hole(int32(g))
			var rep int
			switch {
			case hi > lo:
				rep = p.tids[lo]
			case len(p.tails[int32(g)]) > 0:
				rep = p.tails[int32(g)][0]
			default:
				continue // patched empty: key unreachable until compact
			}
			key = key[:0]
			for i := range p.attrs {
				key = appendCode(key, codeAt(rep, i))
			}
			m[string(key)] = int32(g)
		}
		p.lookup = m
	}
	return p.lookup
}

func appendCode(b []byte, c int32) []byte {
	return append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

// Fresh reports whether the index still describes r: it was built from
// this relation, the relation has not grown, shrunk or been reordered,
// none of the indexed columns was hard-invalidated, and every journaled
// cell patch on the indexed columns has been applied (see catchUp). A
// PLI over untouched columns survives edits to other columns. Fresh
// does not imply canonical group order — an advanced or patched index
// may still carry a delta tail (or patch holes) until Compact.
func (p *PLI) Fresh(r *Relation) bool {
	return p.patchableTo(r) && p.n == r.Len() && p.patchesCurrent(r)
}

// AdvanceableTo reports whether the index describes a stale-only-by-
// appends snapshot of r: built from this relation, no indexed column
// hard-invalidated and no cell patch pending (no un-drained Set on it,
// no reorder, no Truncate) since the build, and the relation is at
// least as long. A fresh index is trivially advanceable.
func (p *PLI) AdvanceableTo(r *Relation) bool {
	return p.patchableTo(r) && p.patchesCurrent(r)
}

// patchableTo reports the weakest reachable state: the index can be
// caught up to r by applying journaled cell patches and absorbing
// appended rows — no indexed column was hard-invalidated (reorder,
// Truncate, journal overflow) and the relation did not shrink.
func (p *PLI) patchableTo(r *Relation) bool {
	if p.rel != r || p.n > r.Len() {
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

// Advance absorbs the rows appended to the relation since the index was
// built or last advanced: each new TID joins the delta tail of its
// existing group, or opens a provisional new group — O(delta) map
// probes, no counting sort, no rebuild. The tail is merged into
// canonical sorted-group order lazily (see Compact), automatically once
// it outgrows an eighth of the index. Advance returns false (changing
// nothing) when the index cannot reach r by appending — an indexed
// column was edited, the relation was reordered or truncated, or it is
// a different relation — and true otherwise, including when there is
// nothing to absorb.
//
// Advance and Compact mutate the index and are serialized against each
// other (PLI.mu), but must not overlap lock-free readers of the same
// PLI; direct callers guarantee that by appending only under an
// exclusive writer, as engine sessions do. (The IndexCache's catch-up
// path compacts shared tailed entries copy-on-write instead — see
// catchUp.)
func (p *PLI) Advance(r *Relation) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.advanceLocked(r)
}

func (p *PLI) advanceLocked(r *Relation) bool {
	if !p.AdvanceableTo(r) {
		return false
	}
	n := r.Len()
	if n == p.n {
		return true
	}
	lookup := p.baseLookup()
	cols := make([][]int32, len(p.attrs))
	for i, a := range p.attrs {
		cols[i] = r.cols[a].codes
	}
	nb := int32(len(p.offsets) - 1)
	key := make([]byte, 0, 8*len(p.attrs))
	for tid := p.n; tid < n; tid++ {
		key = key[:0]
		for _, codes := range cols {
			key = appendCode(key, codes[tid])
		}
		if g, ok := lookup[string(key)]; ok {
			if p.tails == nil {
				p.tails = make(map[int32][]int)
			}
			p.tails[g] = append(p.tails[g], tid)
			p.tidGroup = append(p.tidGroup, g)
		} else if gi, ok := p.newLookup[string(key)]; ok {
			p.newGroups[gi].tids = append(p.newGroups[gi].tids, tid)
			p.tidGroup = append(p.tidGroup, nb+gi)
		} else {
			gi := int32(len(p.newGroups))
			if p.newLookup == nil {
				p.newLookup = make(map[string]int32)
			}
			k := string(key)
			p.newLookup[k] = gi
			p.newGroups = append(p.newGroups, deltaGroup{key: k, tids: []int{tid}})
			p.tidGroup = append(p.tidGroup, nb+gi)
		}
		p.tailLen++
	}
	p.n = n
	p.advanceShardEnds(n)
	if p.tailLen*8 > p.n {
		p.compactLocked()
	}
	return true
}

// Patch applies one journaled cell patch to the index: cell (tid, attr)
// of the underlying relation changed oldCode -> newCode (a
// relation.CellPatch emitted by Relation.Set), and the TID is re-homed
// to the group matching its current codes — an O(group) move (binary
// search plus an intra-group shift on removal, a sorted tail insert on
// arrival; a multi-attribute index recomputes the composite key from
// the current column codes), never a rebuild. TIDs the index has not
// absorbed yet (tid >= the index's length watermark) are no-ops: the
// next Advance reads their post-patch codes anyway. Patch advances the
// index's patch watermark for attr by one record, so callers must apply
// journal records exactly once and in journal order (the discipline the
// IndexCache's catch-up path follows); attr must be one of the indexed
// attributes. Reports whether the TID actually moved groups.
//
// Like Advance, Patch mutates the index and must not overlap lock-free
// readers of the same PLI; a Set implies an exclusive writer, which is
// what guarantees no reader still holds the index when its first
// post-Set lookup patches it.
func (p *PLI) Patch(tid, attr int, oldCode, newCode int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := -1
	for i, a := range p.attrs {
		if a == attr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	// If the lookup map is not materialized yet, build it under a
	// pre-patch overlay of EVERY still-pending journal record (this one
	// included — the watermark has not moved yet): any pending TID may be
	// a group representative whose cell already changed, and keying its
	// group by the post-patch code would strand the group's true key.
	p.lookupMu.Lock()
	needBuild := p.lookup == nil
	p.lookupMu.Unlock()
	if needBuild {
		k := int64(len(p.attrs))
		_, pre, _ := p.pendingPatchTIDs(p.rel)
		if pre == nil {
			pre = make(map[int64]int32, 1)
		}
		if _, dup := pre[int64(tid)*k+int64(idx)]; !dup {
			pre[int64(tid)*k+int64(idx)] = oldCode
		}
		p.baseLookupWith(func(t, i int) int32 {
			if c, ok := pre[int64(t)*k+int64(i)]; ok {
				return c
			}
			return p.rel.cols[p.attrs[i]].codes[t]
		})
	}
	p.patchVers[idx]++
	if tid >= p.n || oldCode == newCode {
		return false
	}
	p.materializeLocked() // span shifts write in place; never into a mapping
	moved := p.patchTIDLocked(tid)
	if moved {
		p.dirty = true
		if (p.tailLen+p.holeCnt)*8 > p.n {
			p.compactLocked()
		}
	}
	return moved
}

// pendingPatchTIDs collects the distinct TIDs (< p.n, ascending) with
// journaled patches the index has not applied, plus an overlay of their
// pre-patch codes per (tid, attr index) — what the TID's current group
// was keyed on. ok is false when some journal no longer retains the
// index's suffix (the entry must be rebuilt). Does not mutate the
// index.
func (p *PLI) pendingPatchTIDs(r *Relation) (tids []int, pre map[int64]int32, ok bool) {
	k := int64(len(p.attrs))
	var seen map[int]struct{}
	for i, a := range p.attrs {
		log, retained := r.PatchesSince(a, p.patchVers[i])
		if !retained {
			return nil, nil, false
		}
		for _, pc := range log {
			if pc.TID >= p.n {
				continue // not absorbed yet; Advance reads current codes
			}
			if seen == nil {
				seen = make(map[int]struct{})
				pre = make(map[int64]int32)
			}
			seen[pc.TID] = struct{}{}
			if key := int64(pc.TID)*k + int64(i); pre != nil {
				if _, dup := pre[key]; !dup {
					pre[key] = pc.Old // earliest record holds the pre-drain code
				}
			}
		}
	}
	for tid := range seen {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	return tids, pre, true
}

// applyPatchesLocked drains the pending journal records gathered by
// pendingPatchTIDs: each patched TID is re-homed to the group matching
// its current codes, and the index's patch watermarks move to the
// journals' heads. Called with p.mu held, under the same no-live-reader
// guarantee as Advance (a pending patch implies a Set under an
// exclusive writer since the last reader window).
func (p *PLI) applyPatchesLocked(r *Relation, tids []int, pre map[int64]int32) {
	k := int64(len(p.attrs))
	p.baseLookupWith(func(tid, i int) int32 {
		if c, ok := pre[int64(tid)*k+int64(i)]; ok {
			return c
		}
		return p.rel.cols[p.attrs[i]].codes[tid]
	})
	p.materializeLocked() // span shifts write in place; never into a mapping
	moved := false
	for _, tid := range tids {
		if p.patchTIDLocked(tid) {
			moved = true
		}
	}
	if moved {
		p.dirty = true
	}
	for i, a := range p.attrs {
		p.patchVers[i] = r.PatchVersion(a)
	}
	if (p.tailLen+p.holeCnt)*8 > p.n {
		p.compactLocked()
	}
}

// patchTIDLocked re-homes one TID to the group matching its current
// codes: it is removed from its recorded group (an O(group) span shift
// leaving a hole, or a tail extraction) and inserted, in sorted
// position, into the tail of the matching base group, an existing
// provisional group, or a freshly opened one — exactly the group
// Advance would have chosen for a new row with these codes, so Compact
// restores canonical order. The lookup map must already be
// materialized. Reports whether the TID changed groups.
func (p *PLI) patchTIDLocked(tid int) bool {
	key := make([]byte, 0, 8*len(p.attrs))
	for _, a := range p.attrs {
		key = appendCode(key, p.rel.cols[a].codes[tid])
	}
	g := int(p.tidGroup[tid])
	nb := len(p.offsets) - 1
	target := -1
	if bg, ok := p.lookup[string(key)]; ok {
		target = int(bg)
	} else if gi, ok := p.newLookup[string(key)]; ok {
		target = nb + int(gi)
	}
	if target == g {
		return false // already home (duplicate or round-trip patches)
	}
	p.removeTIDLocked(tid, g)
	switch {
	case target < 0:
		gi := int32(len(p.newGroups))
		if p.newLookup == nil {
			p.newLookup = make(map[string]int32)
		}
		ks := string(key)
		p.newLookup[ks] = gi
		p.newGroups = append(p.newGroups, deltaGroup{key: ks, tids: []int{tid}})
		p.tidGroup[tid] = int32(nb) + gi
	case target >= nb:
		dg := &p.newGroups[target-nb]
		dg.tids = insertSortedTID(dg.tids, tid)
		p.tidGroup[tid] = int32(target)
	default:
		if p.tails == nil {
			p.tails = make(map[int32][]int)
		}
		p.tails[int32(target)] = insertSortedTID(p.tails[int32(target)], tid)
		p.tidGroup[tid] = int32(target)
	}
	p.tailLen++
	return true
}

// removeTIDLocked deletes one TID from group g: provisional groups and
// delta tails shrink in place; a base-span member is shifted out within
// its own span, leaving a counted hole at the span's end (holes never
// move other groups' storage — Compact squeezes them out).
func (p *PLI) removeTIDLocked(tid, g int) {
	nb := len(p.offsets) - 1
	if g >= nb {
		dg := &p.newGroups[g-nb]
		dg.tids = removeSortedTID(dg.tids, tid)
		p.tailLen--
		return
	}
	if tail := p.tails[int32(g)]; len(tail) > 0 {
		if i := sort.SearchInts(tail, tid); i < len(tail) && tail[i] == tid {
			tail = append(tail[:i], tail[i+1:]...)
			if len(tail) == 0 {
				delete(p.tails, int32(g))
			} else {
				p.tails[int32(g)] = tail
			}
			p.tailLen--
			return
		}
	}
	lo, hi := int(p.offsets[g]), int(p.offsets[g+1]-p.hole(int32(g)))
	span := p.tids[lo:hi]
	i := sort.SearchInts(span, tid)
	copy(span[i:], span[i+1:])
	if p.holes == nil {
		p.holes = make(map[int32]int32)
	}
	p.holes[int32(g)]++
	p.holeCnt++
}

// insertSortedTID inserts tid into an ascending TID slice.
func insertSortedTID(s []int, tid int) []int {
	i := sort.SearchInts(s, tid)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = tid
	return s
}

// removeSortedTID deletes tid from an ascending TID slice.
func removeSortedTID(s []int, tid int) []int {
	i := sort.SearchInts(s, tid)
	return append(s[:i], s[i+1:]...)
}

// Compact merges the delta tail into canonical order: provisional new
// groups are sorted by composite key rank and spliced into the sorted
// group sequence, tailed base groups re-concatenate their members, and
// the flat storage (tids, offsets, tidGroup) is rebuilt in one O(n +
// groups) merge pass — after which the index is byte-identical to
// BuildPLI over the advanced relation. The Lookup map, if built, is
// remapped to the new group numbering and extended with the new groups
// rather than discarded. Compacting an index without a tail is a no-op.
func (p *PLI) Compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.compactLocked()
}

func (p *PLI) compactLocked() {
	if p.dirty {
		p.compactPatchedLocked()
		return
	}
	if p.tailLen == 0 {
		return
	}
	nb0 := len(p.offsets) - 1
	if len(p.newGroups) == 0 {
		// Fast path — the usual streaming case: every absorbed row
		// joined an existing group, so group ids are unchanged and
		// tidGroup and the Lookup map stay valid as-is. Merge span-wise:
		// the runs of untouched groups between tailed ones are bulk
		// memmoves, and only the (few) tailed groups touch the tail map.
		tailed := make([]int32, 0, len(p.tails))
		for g := range p.tails {
			tailed = append(tailed, g)
		}
		sort.Slice(tailed, func(i, j int) bool { return tailed[i] < tailed[j] })
		tids := make([]int, p.n)
		offsets := make([]int32, nb0+1)
		pos, done, shift := 0, 0, int32(0)
		for _, tg := range tailed {
			lo, hi := p.offsets[done], p.offsets[tg+1]
			copy(tids[pos:], p.tids[lo:hi])
			pos += int(hi - lo)
			for g := done; g <= int(tg); g++ {
				offsets[g+1] = p.offsets[g+1] + shift
			}
			tail := p.tails[tg]
			copy(tids[pos:], tail)
			pos += len(tail)
			shift += int32(len(tail))
			offsets[int(tg)+1] += int32(len(tail))
			done = int(tg) + 1
		}
		copy(tids[pos:], p.tids[p.offsets[done]:])
		for g := done; g < nb0; g++ {
			offsets[g+1] = p.offsets[g+1] + shift
		}
		p.tids, p.offsets = tids, offsets
		p.tails, p.tailLen = nil, 0
		if !p.seg.holdsInt32(p.tidGroup) {
			p.seg = nil // compaction rewrote every mapped section
		}
		return
	}
	r := p.rel
	k := len(p.attrs)
	ranks := make([][]int32, k)
	cols := make([][]int32, k)
	for i, a := range p.attrs {
		ranks[i] = r.codeRanks(a)
		cols[i] = r.ColumnCodes(a)
	}
	// less compares two groups by their representative TIDs under the
	// canonical component-wise code-rank order (see BuildPLI); distinct
	// groups always differ in some component.
	less := func(repA, repB int) bool {
		for i := 0; i < k; i++ {
			ra, rb := ranks[i][cols[i][repA]], ranks[i][cols[i][repB]]
			if ra != rb {
				return ra < rb
			}
		}
		return false
	}
	sort.Slice(p.newGroups, func(i, j int) bool {
		return less(p.newGroups[i].tids[0], p.newGroups[j].tids[0])
	})
	nb := len(p.offsets) - 1
	total := nb + len(p.newGroups)
	tids := make([]int, 0, p.n)
	offsets := make([]int32, 1, total+1)
	baseMap := make([]int32, nb)              // old base group -> new index
	newMap := make([]int32, len(p.newGroups)) // sorted newGroups index -> new index
	bi, ni := 0, 0
	for bi < nb || ni < len(p.newGroups) {
		takeNew := bi == nb ||
			(ni < len(p.newGroups) && less(p.newGroups[ni].tids[0], p.tids[p.offsets[bi]]))
		if takeNew {
			newMap[ni] = int32(len(offsets) - 1)
			tids = append(tids, p.newGroups[ni].tids...)
			ni++
		} else {
			baseMap[bi] = int32(len(offsets) - 1)
			tids = append(tids, p.tids[p.offsets[bi]:p.offsets[bi+1]]...)
			tids = append(tids, p.tails[int32(bi)]...)
			bi++
		}
		offsets = append(offsets, int32(len(tids)))
	}
	p.tids, p.offsets = tids, offsets
	if len(p.tidGroup) != p.n || p.seg.holdsInt32(p.tidGroup) {
		p.tidGroup = make([]int32, p.n)
	}
	p.seg = nil
	p.fillTIDGroups()
	p.lookupMu.Lock()
	if p.lookup != nil {
		for key, g := range p.lookup {
			p.lookup[key] = baseMap[g]
		}
		for i, ng := range p.newGroups {
			p.lookup[ng.key] = newMap[i]
		}
	}
	p.lookupMu.Unlock()
	p.tails, p.newGroups, p.newLookup, p.tailLen = nil, nil, nil, 0
}

// compactPatchedLocked is Compact for a patch-dirtied index: base
// groups squeeze out their holes and sort-merge their tails (patches
// may have re-homed TIDs below the append watermark, so tails are no
// longer all-greater-than-base), groups patched fully empty are
// dropped, and surviving provisional groups are spliced in at their
// canonical code-rank position — one O(n + groups) pass, after which
// the index is byte-identical to BuildPLI over the patched relation.
// The Lookup maps are discarded (group numbering may shrink) and
// rebuilt lazily.
func (p *PLI) compactPatchedLocked() {
	r := p.rel
	k := len(p.attrs)
	ranks := make([][]int32, k)
	cols := make([][]int32, k)
	for i, a := range p.attrs {
		ranks[i] = r.codeRanks(a)
		cols[i] = r.ColumnCodes(a)
	}
	less := func(repA, repB int) bool {
		for i := 0; i < k; i++ {
			ra, rb := ranks[i][cols[i][repA]], ranks[i][cols[i][repB]]
			if ra != rb {
				return ra < rb
			}
		}
		return false
	}
	ngs := make([]deltaGroup, 0, len(p.newGroups))
	for _, ng := range p.newGroups {
		if len(ng.tids) > 0 { // patches can empty provisional groups too
			ngs = append(ngs, ng)
		}
	}
	sort.Slice(ngs, func(i, j int) bool { return less(ngs[i].tids[0], ngs[j].tids[0]) })
	nb := len(p.offsets) - 1
	// baseRep returns a live representative of base group g: its first
	// surviving span member, else its first tail member.
	baseRep := func(g int) (int, bool) {
		lo, hi := int(p.offsets[g]), int(p.offsets[g+1]-p.hole(int32(g)))
		if hi > lo {
			return p.tids[lo], true
		}
		if t := p.tails[int32(g)]; len(t) > 0 {
			return t[0], true
		}
		return 0, false
	}
	tids := make([]int, 0, p.n)
	offsets := make([]int32, 1, nb+len(ngs)+1)
	bi, ni := 0, 0
	for {
		rep, live := 0, false
		for bi < nb {
			if rep, live = baseRep(bi); live {
				break
			}
			bi++ // patched empty: dropped
		}
		if !live && ni == len(ngs) {
			break
		}
		if !live || (ni < len(ngs) && less(ngs[ni].tids[0], rep)) {
			tids = append(tids, ngs[ni].tids...)
			ni++
		} else {
			lo, hi := int(p.offsets[bi]), int(p.offsets[bi+1]-p.hole(int32(bi)))
			tids = appendMergedTIDs(tids, p.tids[lo:hi], p.tails[int32(bi)])
			bi++
		}
		offsets = append(offsets, int32(len(tids)))
	}
	p.tids, p.offsets = tids, offsets
	if len(p.tidGroup) != p.n || p.seg.holdsInt32(p.tidGroup) {
		p.tidGroup = make([]int32, p.n)
	}
	p.seg = nil
	p.fillTIDGroups()
	p.lookupMu.Lock()
	p.lookup = nil
	p.lookupMu.Unlock()
	p.tails, p.newGroups, p.newLookup, p.tailLen = nil, nil, nil, 0
	p.holes, p.holeCnt, p.dirty = nil, 0, false
}

// appendMergedTIDs appends the sorted merge of two ascending TID runs
// to dst.
func appendMergedTIDs(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
}

// catchUp is IndexCache's entry-revalidation hook: under the PLI's
// mutex, drain any journaled cell patches, absorb any appended rows,
// and — for order-sensitive callers — compact the delta tail. out is
// nil when the entry cannot reach r (an indexed column was hard-
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
// inside every shared-lock window), so patching, advancing and the
// follow-up compaction may mutate in place. The exception is
// compacting a FRESH entry that still carries a delta tail or patch
// holes: a delta-tolerant reader (GetDelta) may be iterating it
// lock-free right now, so the merge happens copy-on-write into a
// fresh PLI (out != p) and the cache republishes it — the original is
// never mutated again.
func (p *PLI) catchUp(r *Relation, compact bool) (out *PLI, advanced, patched bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.patchableTo(r) {
		return nil, false, false
	}
	if !p.patchesCurrent(r) {
		pending, pre, ok := p.pendingPatchTIDs(r)
		if !ok || len(pending)*8 > p.n {
			return nil, false, false // journal trimmed, or rebuild is cheaper
		}
		if len(pending) > 0 {
			p.applyPatchesLocked(r, pending, pre)
			patched = true
		} else {
			// Every journaled record hits the un-absorbed region; the
			// advance below reads post-patch codes, so just sync.
			for i, a := range p.attrs {
				p.patchVers[i] = r.PatchVersion(a)
			}
		}
	}
	if p.n < r.Len() {
		p.advanceLocked(r)
		advanced = true
	}
	if advanced || patched {
		if compact {
			p.compactLocked()
		}
		return p, advanced, patched
	}
	if compact && (p.tailLen > 0 || p.dirty) {
		return p.compactedCopyLocked(), false, false
	}
	return p, false, false
}

// compactedCopyLocked returns a compacted PLI equivalent to the
// receiver without mutating any state a lock-free reader of the
// receiver can observe: the flat storage and tail maps are only read,
// and everything compaction rewrites (tids, offsets, tidGroup, the
// provisional-group order, the Lookup maps) is private to the copy.
// Called with p.mu held and p.tailLen > 0.
func (p *PLI) compactedCopyLocked() *PLI {
	q := &PLI{
		rel:        p.rel,
		attrs:      p.attrs,
		colVers:    p.colVers,
		patchVers:  append([]uint64(nil), p.patchVers...),
		n:          p.n,
		tids:       p.tids,    // read-only input; compaction emits fresh slices
		offsets:    p.offsets, // "
		tidGroup:   append([]int32(nil), p.tidGroup...),
		holes:      p.holes, // read-only input; compaction resets the copy's
		holeCnt:    p.holeCnt,
		dirty:      p.dirty,
		shardWidth: p.shardWidth,
		shardEnds:  append([]int(nil), p.shardEnds...),
		tails:      p.tails, // read-only input
		newGroups:  append([]deltaGroup(nil), p.newGroups...),
		newLookup:  nil, // compaction drops it; Lookup rebuilds lazily
		tailLen:    p.tailLen,
	}
	q.compactLocked()
	return q
}

// materializeLocked replaces any mapped flat-storage views with heap
// copies and drops the mapping anchor — the gate every in-place
// mutation of a paged-in index goes through (patch drains shift group
// spans in place; writing through a PROT_READ mapping would fault).
// Appends need no gate: mapped views carry cap == len, so the first
// append reallocates onto the heap by itself. Called with p.mu held
// under the usual no-live-reader mutation guarantee — a reader still
// iterating the mapped arrays would otherwise lose the object keeping
// the mmap alive.
func (p *PLI) materializeLocked() {
	if p.seg == nil {
		return
	}
	if p.seg.holdsInt(p.tids) {
		p.tids = append([]int(nil), p.tids...)
	}
	if p.seg.holdsInt32(p.offsets) {
		p.offsets = append([]int32(nil), p.offsets...)
	}
	if p.seg.holdsInt32(p.tidGroup) {
		p.tidGroup = append([]int32(nil), p.tidGroup...)
	}
	p.seg = nil // unmapped by the mapping finalizer once unreferenced
}

// MemSize estimates the index's resident heap bytes (flat storage plus
// delta tail and lookup map) — the unit of IndexCache's byte budget.
// Flat arrays that are zero-copy views into a mapped segment file are
// excluded: they live in pageable OS memory the kernel reclaims under
// pressure, not on the Go heap, which is exactly the existence →
// residency repointing that lets a paged-in index stay cached at
// near-zero budget cost.
func (p *PLI) MemSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sz int64
	if !p.seg.holdsInt(p.tids) {
		sz += int64(len(p.tids)) * 8
	}
	if !p.seg.holdsInt32(p.offsets) {
		sz += int64(len(p.offsets)) * 4
	}
	if !p.seg.holdsInt32(p.tidGroup) {
		sz += int64(len(p.tidGroup)) * 4
	}
	sz += int64(p.tailLen)*16 + int64(len(p.shardEnds))*8
	sz += int64(len(p.holes))*8 + int64(len(p.patchVers))*8
	p.lookupMu.Lock()
	sz += int64(len(p.lookup)) * (16 + int64(len(p.attrs))*4)
	p.lookupMu.Unlock()
	return sz + 96
}
