package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
)

// Dataset is one registered dataset, whole in this process (*Session)
// or range-partitioned across a worker fleet (*ClusterDataset): the
// detect → discover operations both answer, with one result type per
// operation. A result field only the cluster can fill (the merge's
// residual, the worker calls, a degraded merge) is left empty by a
// Session; one only a Session can fill (the delta's repair) is left
// empty by a ClusterDataset.
type Dataset interface {
	Name() string
	Len() int
	Schema() *relation.Schema
	Constraints() *cfd.Set
	DCs() *dc.Set
	Storage() Storage

	// InstallConstraints compiles CFD text and replaces the installed
	// set with it; InstallDCs does the same for denial constraints.
	InstallConstraints(text string) (*cfd.Set, error)
	InstallDCs(text string) (*dc.Set, error)

	// Detect runs detection of the installed CFDs; the result's list is
	// the caller's. Violations answers from the cached list when it is
	// current — shared, read-only — and detects otherwise.
	Detect() (*DetectResult, error)
	Violations() (*DetectResult, error)
	// AppendRows parses raw positional fields with the schema's kinds
	// (empty string = NULL) and appends them with incremental repair.
	AppendRows(rows [][]string) (*AppendResult, error)
	// Discover profiles the data for CFDs (opts.MinSupport and
	// opts.MaxLHS; a cluster ignores the rest) and, if install, installs
	// what it found.
	Discover(opts discovery.Options, install bool) ([]*cfd.CFD, error)
	// DetectDCs detects every installed DC, truncating each report's
	// (T,U)-sorted list at limit > 0.
	DetectDCs(limit int) (*DCResult, error)
}

// DetectResult is one detection outcome.
type DetectResult struct {
	Violations []cfd.Violation
	// Gen is the generation of the cached list this result equals, 0
	// when it was not cached. Two results with the same non-zero Gen
	// carry the same list.
	Gen uint64
	// Residual is the boundary-group pass of the merge behind a cluster
	// answer; nil from a Session, which merges nothing.
	Residual *cfd.MergeStats
	// Workers are the per-worker shard-detect latencies of a cluster
	// detect.
	Workers []WorkerCall
	// Degraded reports that one or more workers failed mid-detect and
	// their shards are absent from the merge: Violations is a sound
	// partial answer over the surviving shards, never a silent global
	// one. Degraded results are not cached.
	Degraded bool
	// Failed lists the workers excluded from a degraded merge.
	Failed []WorkerFailure
}

// DCResult is one DC detection outcome: a report per installed DC, in
// installation order.
type DCResult struct {
	Reports []DCReport
	// Residual holds each report's merge pass on a cluster — non-nil,
	// and empty when no DC is installed; nil from a Session.
	Residual []dc.MergeStats
}

// AppendResult is one append's outcome.
type AppendResult struct {
	Appended int
	// Repair is the incremental repair of the delta; nil from a
	// ClusterDataset, whose tail worker repaired it.
	Repair *repair.Result
}

// Storage is where a dataset's tuples and indexes live, as GET
// /v1/datasets/{name} reports it: a Session's PLI cache, or a
// ClusterDataset's per-worker tuple counts.
type Storage struct {
	// IndexCache reports the session's PLI cache counters (shared by
	// detection, discovery and incremental repair); a healthy steady
	// state shows hits growing while misses and refines stay flat, and
	// an append-heavy steady state (POST /v1/repair/incremental) grows
	// advances — cached partitions extended by the delta in place —
	// still without rebuilds. When those appends are dirty, the repair's
	// cell writes drain into cached partitions as per-cell patches and
	// grow patches instead of invalidating anything. evictions moves
	// only under a configured cache byte budget, and shard_builds counts
	// the cold builds that ran the TID-range-parallel counting sort
	// (-shards). Under tiered storage (-spill-dir) spills counts
	// demotions of clean partitions to segment files in place of
	// evictions, and pageins counts the mmap-backed revivals that made
	// the next touch rebuild-free.
	IndexCache *relation.CacheStats `json:"index_cache,omitempty"`
	// IndexResidentBytes is the cache's current heap-resident byte
	// estimate — the quantity the -index-budget-mb budget bounds. Paged-
	// in (mmap-backed) partitions cost almost nothing here; the gap
	// between this and the logical index size is what tiering bought.
	IndexResidentBytes *int64 `json:"index_resident_bytes,omitempty"`
	// Shards are the per-worker tuple counts in TID-range order, on a
	// coordinator (which holds no index of its own).
	Shards []int `json:"shards,omitempty"`
}

// ErrInvalid tags an error in the caller's own data — a row of the
// wrong arity, a field that does not parse as its attribute's kind —
// so the HTTP layer answers 400 whatever the route's fallback.
var ErrInvalid = errors.New("invalid input")

// invalid marks an error as ErrInvalid without changing its message.
type invalid struct{ error }

func (invalid) Is(target error) bool { return target == ErrInvalid }

// checkArity refuses rows that do not have the schema's arity.
func checkArity(schema *relation.Schema, rows [][]string) error {
	for i, fields := range rows {
		if len(fields) != schema.Arity() {
			return invalid{fmt.Errorf("tuple %d has %d fields, schema %s expects %d", i, len(fields), schema.Name(), schema.Arity())}
		}
	}
	return nil
}

// Registry is what the HTTP layer and the daemon see of an Engine or a
// Coordinator: named datasets behind Dataset.
type Registry interface {
	List() []string
	Lookup(name string) (Dataset, bool)
	Add(name string, data *relation.Relation) (Dataset, error)
	Drop(name string) bool
	InstallConstraints(dataset, text string) (*cfd.Set, error)
	InstallDCs(dataset, text string) (*dc.Set, error)
}

// member is what the registry needs of a dataset besides Dataset.
type member interface {
	Dataset
	// setJournal attaches the journal the dataset's mutations write to.
	setJournal(Journal)
	// retire journals the dataset's drop under the exclusion every
	// mutation of it journals under, and marks it dropped, so no record
	// of it can follow its drop record in the WAL (replay would apply it
	// to an unknown dataset) and stale handles refuse further mutations.
	// It reports false when the dataset was dropped already or the
	// journal refused: a drop that isn't durable must not be acked, or
	// recovery would resurrect the dataset.
	retire() bool
	// release frees what the dataset holds outside the registry: after a
	// drop, or when its registration is undone.
	release()
}

// registry is the dataset registry Engine and Coordinator embed: names
// behind an RWMutex so lookups from concurrent requests never contend
// with each other, plus the journal every registration, drop and
// mutation is made durable in before it is acked (nil: memory only).
type registry[D member] struct {
	mu       sync.RWMutex
	byName   map[string]D
	reserved map[string]bool // names mid-registration
	journal  Journal
}

func newRegistry[D member]() registry[D] {
	return registry[D]{byName: map[string]D{}, reserved: map[string]bool{}}
}

// register reserves name, builds the dataset, journals its registration
// (schema and rows, produced only when there is a journal) and publishes
// it, undoing the build when the journal refuses. The name is reserved
// first, so a duplicate builds nothing; the journal write happens
// BEFORE the dataset is reachable, so no other record for it can
// precede its register record in the log, and outside mu, so a slow
// fsync never blocks lookups of other datasets.
func (r *registry[D]) register(name string, schema *relation.Schema, rows func() []relation.Tuple, build func(Journal) (D, error)) (D, error) {
	var none D
	if name == "" {
		return none, fmt.Errorf("engine: dataset name must be non-empty")
	}
	r.mu.Lock()
	if _, dup := r.byName[name]; dup || r.reserved[name] {
		r.mu.Unlock()
		return none, fmt.Errorf("engine: dataset %q: %w", name, ErrDuplicate)
	}
	r.reserved[name] = true
	j := r.journal
	r.mu.Unlock()
	d, err := build(j)
	if err == nil && j != nil {
		if jerr := j.LogRegister(name, schema, rows()); jerr != nil {
			d.release()
			err = notDurable(fmt.Sprintf("register of %q", name), jerr)
		}
	}
	r.mu.Lock()
	delete(r.reserved, name)
	if err == nil {
		r.byName[name] = d
	}
	r.mu.Unlock()
	if err != nil {
		return none, err
	}
	return d, nil
}

// added is a registration behind the Registry interface.
func added[D member](d D, err error) (Dataset, error) {
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Get returns the named dataset.
func (r *registry[D]) Get(name string) (D, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byName[name]
	return d, ok
}

// Lookup is Get behind the Registry interface.
func (r *registry[D]) Lookup(name string) (Dataset, bool) {
	d, ok := r.Get(name)
	if !ok {
		return nil, false
	}
	return d, true
}

// lookup is Get as an ErrUnknownDataset error.
func (r *registry[D]) lookup(name string) (D, error) {
	d, ok := r.Get(name)
	if !ok {
		return d, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	return d, nil
}

// List returns the registered dataset names, sorted.
func (r *registry[D]) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.byName))
}

// Drop removes the named dataset and reports whether it existed and
// the drop is durable (see member.retire). In-flight requests holding
// the dataset finish normally.
func (r *registry[D]) Drop(name string) bool {
	d, ok := r.Get(name)
	if !ok || !d.retire() {
		return false
	}
	// d retired exactly once, and a name is only freed here, so it still
	// maps to d.
	r.mu.Lock()
	delete(r.byName, name)
	r.mu.Unlock()
	d.release()
	return true
}

// InstallConstraints compiles text and installs the set on the named
// dataset — the service path for POST /v1/constraints.
func (r *registry[D]) InstallConstraints(dataset, text string) (*cfd.Set, error) {
	d, err := r.lookup(dataset)
	if err != nil {
		return nil, err
	}
	return d.InstallConstraints(text)
}

// InstallDCs compiles DC text and installs the set on the named dataset
// — the service path for POST /v1/dcs.
func (r *registry[D]) InstallDCs(dataset, text string) (*dc.Set, error) {
	d, err := r.lookup(dataset)
	if err != nil {
		return nil, err
	}
	return d.InstallDCs(text)
}

// SetJournal attaches (or detaches, with nil) the durability journal.
// Attach AFTER recovery has replayed the log — a journaling replay
// would re-log every record — and before the registry serves traffic.
func (r *registry[D]) SetJournal(j Journal) {
	r.mu.Lock()
	r.journal = j
	all := slices.Collect(maps.Values(r.byName))
	r.mu.Unlock()
	for _, d := range all {
		d.setJournal(j)
	}
}

func (r *registry[D]) getJournal() Journal {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.journal
}

// --- wal.Applier, the replay methods both logs share. The journal must
// be detached while they run.

// ApplyConstraints replays a constraint installation from its text.
func (r *registry[D]) ApplyConstraints(name, text string) error {
	_, err := r.InstallConstraints(name, text)
	return err
}

// ApplyDCs replays a denial-constraint installation.
func (r *registry[D]) ApplyDCs(name, text string) error {
	_, err := r.InstallDCs(name, text)
	return err
}

// ApplyDrop replays a dataset drop. Tolerant of a missing dataset:
// racing Drop calls can journal the same drop twice.
func (r *registry[D]) ApplyDrop(name string) error {
	r.Drop(name)
	return nil
}

// DatasetArity resolves the schema arity replay needs to decode rows.
func (r *registry[D]) DatasetArity(name string) (int, bool) {
	d, ok := r.Get(name)
	if !ok {
		return 0, false
	}
	return d.Schema().Arity(), true
}
