package relation

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// CacheStats is a snapshot of an IndexCache's counters. Misses count
// from-scratch index (re)builds and Refines count parent-partition
// intersections (GetVia), so "zero rebuilds" across repeated detection
// or discovery is asserted by Misses+Refines staying constant while
// Hits grows.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Refines counts GetVia lookups answered by refining a cached parent
	// PLI with one extra attribute instead of counting-sorting from
	// scratch.
	Refines uint64 `json:"refines"`
	// Advances counts lookups answered by absorbing appended rows into
	// the cached PLI in place (PLI.advance) instead of rebuilding it —
	// the steady-state append→detect path builds nothing, so
	// Misses+Refines stay constant while Advances grows.
	Advances uint64 `json:"advances"`
	// Patches counts lookups answered by draining the per-column cell-
	// patch journal into the cached PLI (PLI re-homes the patched TIDs
	// between groups in O(group)) instead of rebuilding it — the
	// append→repair→detect path keeps every index warm, so
	// Misses+Refines stay constant while Patches grows.
	Patches uint64 `json:"patches"`
	// Evictions counts entries dropped outright to keep the cache inside
	// its byte budget (SetBudget) — the fallback when no spill store is
	// attached or the victim has no reusable on-disk snapshot.
	Evictions uint64 `json:"evictions"`
	// Spills counts budget victims demoted to a segment file instead of
	// discarded (SetSpill): the heap arrays are dropped, the entry's
	// watermarks and file live on, and the next lookup pages it back in
	// without a rebuild.
	Spills uint64 `json:"spills"`
	// Pageins counts lookups answered by re-mapping a demoted entry's
	// segment file (zero-copy mmap on linux, a plain read elsewhere) —
	// on a budget-constrained warm path Pageins grow while Misses and
	// Refines stay flat, which is the "paging, not thrashing" assertion
	// BenchmarkSpillDetect makes.
	Pageins uint64 `json:"pageins"`
}

// cacheEntry wraps a cached PLI with its recency tick and last-measured
// resident size (bytes is guarded by IndexCache.mu) for eviction.
// onDisk, when non-nil, is the entry's last written spill snapshot: a
// paged-in entry keeps the record it came from, so demoting it again
// while unchanged reuses the file instead of rewriting it.
type cacheEntry struct {
	pli     *PLI
	lastUse atomic.Uint64
	bytes   int64
	onDisk  *spillRecord
}

// IndexCache memoizes PLIs per attribute set for one logical dataset.
// Entries carry their build-time column versions, patch-journal
// watermarks and length watermark, so a lookup after a mutation does
// the minimum work: cell edits are drained from the per-column patch
// journal into the PLIs mentioning the edited column (each patched TID
// re-homed in the entry's overlay — see PLI.catchUp; only journal
// overflow, reorders and truncation still invalidate), appends are
// absorbed into the overlay (PLI.advance — no rebuild at all), and
// relation swaps invalidate everything. A large pending patch set falls back to a
// rebuild when that is cheaper, under the same byte budget as any
// other store.
//
// The cache is safe for concurrent use. It is keyed by attribute set
// only — callers hand it the current relation on every Get and the
// cache validates the stored snapshot against it — so an engine session
// keeps one cache across Accept data swaps, and a repair run keeps one
// across materialize passes. Catch-up writes are serialized per entry;
// they never overlap lock-free readers because appends and edits are
// exclusive at the session level and readers re-fetch per shared-lock
// window, and folding the overlay of an entry a GetDelta reader may
// still be iterating goes into a new PLI with the slot republished
// (see PLI.catchUp), so Get and GetDelta interleave safely on one
// entry.
type IndexCache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry
	// rel tracks the identity of the relation the resident entries were
	// built from, so store only sweeps for replaced-relation entries
	// when the identity actually changes (not on every store).
	rel *Relation
	// budget is atomic so the hit/advance fast path can test "is a
	// budget configured at all" without taking the cache lock; resident
	// is the running total of entry sizes (guarded by mu), maintained on
	// store/evict/advance so budget enforcement never rescans the map.
	budget   atomic.Int64
	resident int64

	// spill, when set, turns budget eviction into tiered demotion: clean
	// victims are written to (or keep) a segment file and move to the
	// spilled map, from which lookups page them back in via read-only
	// mmap instead of rebuilding. Both fields are guarded by mu.
	spill   *SpillStore
	spilled map[string]*spillRecord

	tick      atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	refines   atomic.Uint64
	advances  atomic.Uint64
	patches   atomic.Uint64
	evictions atomic.Uint64
	spills    atomic.Uint64
	pageins   atomic.Uint64
}

// NewIndexCache creates an empty cache with no byte budget.
func NewIndexCache() *IndexCache {
	return &IndexCache{
		entries: make(map[string]*cacheEntry),
		spilled: make(map[string]*spillRecord),
	}
}

// SetSpill attaches a spill store, repointing the byte budget from
// existence to residency: an entry evicted under budget pressure is
// demoted to a segment file in the store (heap arrays dropped) and the
// next Get/GetVia pages it back in as a zero-copy mapped base instead
// of rebuilding — mapped storage is pageable OS memory, so it costs
// the budget (a heap-residency cap) almost nothing. A segment holds a
// base, so only an entry whose overlay is empty is written out; one
// with an overlay falls back to the snapshot it was paged in from
// (plus catchUp) or to a plain eviction. Attach before concurrent use.
func (c *IndexCache) SetSpill(store *SpillStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spill = store
}

// SetBudget caps the cache's resident PLI bytes (0 = unlimited, the
// default). The budget is enforced on store and on in-place advances
// (the paths where entries grow): when the running resident total
// overflows, entries are evicted deepest-attribute-set first, then
// least-recently-used among equals — so a discovery walk's deep lattice
// leaves (cheap to re-derive via GetVia refinement) go before the
// shallow detection partitions a service session reuses forever.
func (c *IndexCache) SetBudget(bytes int64) {
	c.budget.Store(bytes)
}

// SetShards does nothing: index builds are serial counting sorts.
//
// Deprecated: kept so older callers still compile; there is no build
// fan-out to set.
func (c *IndexCache) SetShards(int) {}

func attrsKey(attrs []int) string {
	buf := make([]byte, 0, 4*len(attrs))
	for _, a := range attrs {
		buf = strconv.AppendInt(buf, int64(a), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// Get returns a canonical PLI of r over attrs: a cached entry that is
// fresh (or stale only by appends, which Get absorbs and compacts) is
// reused; otherwise the index is rebuilt and re-cached. A fresh entry
// still carrying an overlay (left by GetDelta) is folded into a new
// PLI and the slot republished. Concurrent readers may race
// to rebuild the same stale entry; both get a correct index and one of
// them wins the cache slot.
func (c *IndexCache) Get(r *Relation, attrs []int) *PLI {
	return c.lookup(r, attrs, true)
}

// GetDelta is Get for delta-tolerant consumers (incremental detection):
// a stale-only-by-appends entry is advanced but NOT compacted, so each
// absorbed batch costs O(delta) and the appended rows sit in the
// entry's overlay — group iteration sees new groups after the base
// groups, in arrival rather than sorted-key order. Use Get wherever
// canonical group order matters; a later Get folds the overlay.
func (c *IndexCache) GetDelta(r *Relation, attrs []int) *PLI {
	return c.lookup(r, attrs, false)
}

func (c *IndexCache) lookup(r *Relation, attrs []int, compact bool) *PLI {
	key := attrsKey(attrs)
	if p := c.cached(r, key, compact, true); p != nil {
		return p
	}
	p := BuildPLI(r, attrs)
	c.misses.Add(1)
	c.store(r, key, p)
	return p
}

// cached answers a lookup from the entry under key — resident, or
// demoted and paged back in — caught up to r (PLI.catchUp): the one
// revalidation sequence behind Get, GetDelta and both of GetVia's
// probes. It returns nil when there is no such entry or it cannot reach
// r, and the caller builds. Drained patches and absorbed rows are
// counted as such; direct says the entry itself is the answer, as
// opposed to the parent GetVia refines from: only then is an untouched
// entry a hit, and one that grew is re-measured against the byte
// budget. A fresh entry whose overlay was folded comes back as a new
// PLI (see catchUp) and is republished in the slot.
func (c *IndexCache) cached(r *Relation, key string, compact, direct bool) *PLI {
	c.mu.RLock()
	e := c.entries[key]
	hasSpilled := len(c.spilled) > 0
	c.mu.RUnlock()
	if e == nil && hasSpilled {
		e = c.pageIn(r, key)
	}
	if e == nil {
		return nil
	}
	pli, advanced, patched := e.pli.catchUp(r, compact)
	if pli == nil {
		return nil
	}
	e.lastUse.Store(c.tick.Add(1))
	if patched {
		c.patches.Add(1)
	}
	if advanced {
		c.advances.Add(1)
	}
	if direct {
		if advanced || patched {
			c.enforceBudget(key)
		} else {
			c.hits.Add(1)
		}
	}
	if pli != e.pli {
		c.replaceEntry(key, e.pli, pli)
	}
	return pli
}

// replaceEntry publishes the PLI a fresh entry's overlay was folded
// into (see PLI.catchUp): subsequent lookups get the compacted index
// while readers still iterating the old one keep their consistent
// snapshot. No-op if the slot no longer holds the PLI the merge was
// made from (a concurrent rebuild or eviction won).
func (c *IndexCache) replaceEntry(key string, old, compacted *PLI) {
	tick := c.tick.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	prior := c.entries[key]
	if prior == nil || prior.pli != old {
		return
	}
	// The compacted PLI holds the same logical content at the same
	// watermarks, so the prior entry's spill snapshot (if any) remains
	// its snapshot — carried over, revalidated at the next demote.
	e := &cacheEntry{pli: compacted, bytes: compacted.MemSize(), onDisk: prior.onDisk}
	e.lastUse.Store(tick)
	c.resident += e.bytes - prior.bytes
	c.entries[key] = e
	c.enforceBudgetLocked(key)
}

// enforceBudget applies the byte budget outside store — the steady-state
// append path grows entries in place (PLI.advance) without ever storing,
// and must not outgrow a configured cap. The advanced entry's size is
// re-measured and folded into the running resident total, so the call is
// O(1) unless an eviction is actually due. No-op (and lock-free) without
// a budget.
func (c *IndexCache) enforceBudget(keepKey string) {
	if c.budget.Load() <= 0 {
		return
	}
	c.mu.Lock()
	if e := c.entries[keepKey]; e != nil {
		sz := e.pli.MemSize()
		c.resident += sz - e.bytes
		e.bytes = sz
	}
	c.enforceBudgetLocked(keepKey)
	c.mu.Unlock()
}

// GetVia returns a PLI of r over attrs like Get, but answers a miss by
// refining the cached PLI over attrs[:len-1] with the last attribute
// (PLI.intersect) when that parent is present and reachable — one
// counting sort instead of len(attrs). The parent itself is caught up
// (advanced and compacted) first if it is stale only by appends.
// Level-wise lattice walks (TANE-style discovery) visit attribute sets
// in exactly the order that keeps the parent warm, so a cold walk costs
// one full build per single attribute and one refinement per larger
// set.
func (c *IndexCache) GetVia(r *Relation, attrs []int) *PLI {
	key := attrsKey(attrs)
	if p := c.cached(r, key, true, true); p != nil {
		return p
	}
	var p *PLI
	if len(attrs) > 1 {
		// A demoted parent is still one refinement away from the answer:
		// cached pages it in rather than fall back to a full build.
		if parent := c.cached(r, attrsKey(attrs[:len(attrs)-1]), true, false); parent != nil {
			p = parent.intersect(attrs[len(attrs)-1])
			c.refines.Add(1)
		}
	}
	if p == nil {
		p = BuildPLI(r, attrs)
		c.misses.Add(1)
	}
	c.store(r, key, p)
	return p
}

// store publishes a freshly built PLI under key. Entries referencing a
// replaced relation are swept ONLY when the incoming relation's identity
// differs from the one the cache tracks (a session committing a repair
// swaps its data) — the hot same-relation path pays nothing, instead of
// the former O(entries) full-map sweep on every store.
func (c *IndexCache) store(r *Relation, key string, p *PLI) {
	tick := c.tick.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rel != r {
		// PLIs pin the relation they were built from; drop every entry
		// still referencing another relation so the cache never keeps a
		// replaced dataset alive — including entries under attribute
		// sets the caller no longer asks for. Spill records pin it the
		// same way (page-in hands back PLIs over rec.rel), so they and
		// their files go too.
		for k, e := range c.entries {
			if e.pli.rel != r {
				c.resident -= e.bytes
				c.dropEntryFileLocked(e)
				delete(c.entries, k)
			}
		}
		for k, rec := range c.spilled {
			if rec.rel != r {
				c.dropRecordLocked(k, rec)
			}
		}
		c.rel = r
	}
	if prior := c.entries[key]; prior == nil || !prior.pli.fresh(r) {
		e := &cacheEntry{pli: p, bytes: p.MemSize()}
		e.lastUse.Store(tick)
		if prior != nil {
			c.resident -= prior.bytes
			c.dropEntryFileLocked(prior)
		}
		if rec := c.spilled[key]; rec != nil {
			// A fresh build supersedes whatever snapshot was on disk.
			c.dropRecordLocked(key, rec)
		}
		c.resident += e.bytes
		c.entries[key] = e
	}
	c.enforceBudgetLocked(key)
}

// dropEntryFileLocked unlinks a discarded entry's spill snapshot, if it
// has one that is not also registered in the spilled map (records own
// their files once registered).
func (c *IndexCache) dropEntryFileLocked(e *cacheEntry) {
	if e.onDisk != nil && c.spill != nil && c.spilled[attrsKey(e.onDisk.attrs)] != e.onDisk {
		c.spill.Remove(e.onDisk.path)
	}
}

// dropRecordLocked forgets a spill record and unlinks its file.
func (c *IndexCache) dropRecordLocked(key string, rec *spillRecord) {
	delete(c.spilled, key)
	if c.spill != nil {
		c.spill.Remove(rec.path)
	}
}

// pageIn revives a demoted entry: its segment file is re-opened as
// zero-copy mapped views (a plain heap decode on platforms without the
// mmap fast path) and republished as a resident entry carrying the
// snapshot's watermarks — the caller's catchUp then absorbs anything
// that happened since the demote (appends, journaled patches) exactly
// as if the entry had stayed resident. Stale records (relation swapped,
// column hard-invalidated, truncated) and unreadable files are
// discarded so the caller falls through to a rebuild. Returns nil when
// there is nothing to page in.
func (c *IndexCache) pageIn(r *Relation, key string) *cacheEntry {
	tick := c.tick.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e // lost a race with another page-in or a rebuild
	}
	rec := c.spilled[key]
	if rec == nil {
		return nil
	}
	if !rec.validFor(r) {
		c.dropRecordLocked(key, rec)
		return nil
	}
	p, err := loadPLISegment(rec)
	if err != nil {
		c.dropRecordLocked(key, rec)
		return nil
	}
	e := &cacheEntry{pli: p, bytes: p.MemSize(), onDisk: rec}
	e.lastUse.Store(tick)
	c.resident += e.bytes
	c.entries[key] = e
	delete(c.spilled, key)
	c.pageins.Add(1)
	c.enforceBudgetLocked(key)
	return e
}

// enforceBudgetLocked demotes or evicts entries until the running
// resident total fits the budget: deepest attribute sets first,
// least-recently-used among equals. The entry just touched under
// keepKey survives even when it alone exceeds the budget (evicting what
// the caller is about to use would only thrash). Every iteration
// removes a map entry (demoted or evicted), so the loop terminates even
// when paged-in entries contribute almost nothing to residency. The
// victim scan runs only while actually over budget; the in-budget
// steady state pays nothing.
func (c *IndexCache) enforceBudgetLocked(keepKey string) {
	budget := c.budget.Load()
	if budget <= 0 {
		return
	}
	for c.resident > budget && len(c.entries) > 1 {
		victim := ""
		vDepth := -1
		var vUse uint64
		for k, e := range c.entries {
			if k == keepKey || e.bytes <= 0 {
				continue
			}
			depth, use := len(e.pli.attrs), e.lastUse.Load()
			if depth > vDepth || (depth == vDepth && use < vUse) {
				victim, vDepth, vUse = k, depth, use
			}
		}
		if victim == "" {
			return
		}
		e := c.entries[victim]
		c.resident -= e.bytes
		delete(c.entries, victim)
		if c.demoteLocked(victim, e) {
			c.spills.Add(1)
		} else {
			c.dropEntryFileLocked(e)
			c.evictions.Add(1)
		}
	}
}

// demoteLocked tries to turn an eviction into a demotion: a victim
// with an empty overlay is snapshotted to a segment file (or keeps its
// still-current one) and registered for page-in; one with an overlay
// falls back to the snapshot it came from when there is one — page-in
// plus catchUp re-derives the current state from it — and otherwise
// reports false for a plain eviction. Called with c.mu held;
// takes p.mu inside (the established c.mu → p.mu order).
func (c *IndexCache) demoteLocked(key string, e *cacheEntry) bool {
	if c.spill == nil {
		return false
	}
	if rec, ok := e.pli.spillSnapshot(c.spill, e.onDisk); ok {
		if e.onDisk != nil && e.onDisk != rec {
			c.spill.Remove(e.onDisk.path)
		}
		c.spilled[key] = rec
		return true
	}
	if e.onDisk != nil {
		c.spilled[key] = e.onDisk
		return true
	}
	return false
}

// Stats returns the cache's counters.
func (c *IndexCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Refines:   c.refines.Load(),
		Advances:  c.advances.Load(),
		Patches:   c.patches.Load(),
		Evictions: c.evictions.Load(),
		Spills:    c.spills.Load(),
		Pageins:   c.pageins.Load(),
	}
}

// ResidentBytes returns the running total of cached entries' heap bytes
// — the quantity the byte budget caps. Mapped (paged-in) storage is
// excluded by construction (see PLI.MemSize).
func (c *IndexCache) ResidentBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.resident
}

// Len returns the number of cached attribute sets.
func (c *IndexCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Reset drops every entry and spill record, unlinking the segment
// files (counters are preserved).
func (c *IndexCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.dropEntryFileLocked(e)
	}
	c.entries = make(map[string]*cacheEntry)
	for k, rec := range c.spilled {
		c.dropRecordLocked(k, rec)
	}
	c.spilled = make(map[string]*spillRecord)
	c.rel = nil
	c.resident = 0
}
