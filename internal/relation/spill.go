package relation

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
)

// SpillStore hands out segment-file paths under one directory — the
// per-dataset home of everything the tiered storage layer demotes
// (PLI bases under budget pressure). Files are written once and never
// rewritten; superseded files are unlinked, which on Linux is safe even
// while a reader still holds a mapping of them. The store never deletes
// its directory itself — the engine removes it wholesale when the
// dataset is dropped.
type SpillStore struct {
	dir string
	seq atomic.Uint64
}

// NewSpillStore creates (if needed) dir and returns a store over it.
func NewSpillStore(dir string) (*SpillStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &SpillStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *SpillStore) Dir() string { return s.dir }

// NewPath returns a fresh never-before-issued file path.
func (s *SpillStore) NewPath(prefix string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%06d.seg", prefix, s.seq.Add(1)))
}

// Remove unlinks one segment file (best-effort; live mappings of it
// stay valid).
func (s *SpillStore) Remove(path string) { os.Remove(path) }

// spillRecord describes one demoted PLI: the segment file holding its
// flat storage plus the freshness watermarks the resident entry carried
// when the snapshot was written (the same triple IndexCache validation
// runs on — column versions, patch watermarks, length). A record whose
// watermarks lag the relation is still usable as long as the entry
// would have been reachable resident: page-in rebuilds the PLI from the
// file and the ordinary catchUp drains the missing patches and appends.
// Only a hard invalidation (column version bump, truncate/reorder,
// relation swap) kills a record.
type spillRecord struct {
	path      string
	rel       *Relation
	attrs     []int
	colVers   []uint64
	patchVers []uint64
	n         int
	fileBytes int64
}

// validFor reports whether the record can still be caught up to r —
// the spill-side analogue of PLI.patchableTo.
func (rec *spillRecord) validFor(r *Relation) bool {
	if rec.rel != r || rec.n > r.Len() {
		return false
	}
	for i, a := range rec.attrs {
		if rec.colVers[i] != r.ColumnVersion(a) {
			return false
		}
	}
	return true
}

// spillSnapshot writes the index's base to a fresh segment file in
// store and returns the record describing it, reusing prior when it
// already describes the current state (an entry demoted, paged in and
// demoted again without changing in between costs no I/O the second
// time). ok is false — nothing written — unless the overlay is empty:
// a segment holds a base, and only then is the base the partition.
func (p *PLI) spillSnapshot(store *SpillStore, prior *spillRecord) (*spillRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 || !p.ov.empty() {
		return nil, false
	}
	if prior != nil && prior.rel == p.rel && prior.n == p.n && slices.Equal(prior.patchVers, p.patchVers) {
		return prior, true
	}
	path := store.NewPath("pli")
	size, err := writePLISegment(path, p)
	if err != nil {
		return nil, false
	}
	return &spillRecord{
		path:      path,
		rel:       p.rel,
		attrs:     slices.Clone(p.attrs),
		colVers:   slices.Clone(p.colVers),
		patchVers: slices.Clone(p.patchVers),
		n:         p.n,
		fileBytes: size,
	}, true
}

// loadPLISegment rebuilds a PLI from a demoted record's segment file:
// the file comes back as a base — zero-copy views into a read-only
// mapping where the platform supports it, a heap decode elsewhere —
// and the PLI re-enters the cache with the record's watermarks and an
// empty overlay. Any appends or journaled patches since the snapshot
// are absorbed by the very next catchUp, the same way a resident entry
// would have absorbed them, without touching the mapped arrays.
func loadPLISegment(rec *spillRecord) (*PLI, error) {
	b, err := openPLISegment(rec.path)
	if err != nil {
		return nil, err
	}
	if b.n != rec.n {
		return nil, fmt.Errorf("relation: segment %s covers %d rows, record says %d", rec.path, b.n, rec.n)
	}
	return &PLI{
		rel:       rec.rel,
		attrs:     slices.Clone(rec.attrs),
		colVers:   slices.Clone(rec.colVers),
		patchVers: slices.Clone(rec.patchVers),
		pliBase:   b,
	}, nil
}

// MmapSupported reports whether this build pages segments back in
// zero-copy. Exposed so callers and tests can gate spill-dependent
// behavior per platform.
func MmapSupported() bool { return mmapSupported }
