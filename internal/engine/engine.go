package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/relation"
)

// Sentinel errors the HTTP layer maps to status codes (errors.Is).
var (
	// ErrDuplicate reports a Register against an existing name.
	ErrDuplicate = errors.New("dataset already registered")
	// ErrUnknownDataset reports an operation naming no registered dataset.
	ErrUnknownDataset = errors.New("unknown dataset")
	// ErrNotDurable reports a mutation refused (or rolled back) because
	// the journal could not record it: the service's fault, never the
	// client's, so the HTTP layer answers 500.
	ErrNotDurable = errors.New("not durable")
)

// notDurable tags a journal failure while journaling op.
func notDurable(op string, err error) error {
	return fmt.Errorf("engine: journaling %s: %w: %w", op, ErrNotDurable, err)
}

// maxCachedSets bounds the compiled-constraint cache; on overflow the
// cache is reset wholesale (sessions keep their installed sets — only
// future compilations lose sharing), which keeps a long-running daemon
// fed distinct constraint texts from growing without bound.
const maxCachedSets = 256

// Options configures an Engine.
type Options struct {
	// Workers is the detection worker-pool size handed to every
	// session: 0 means runtime.NumCPU(), 1 forces serial detection.
	Workers int
	// Shards is the PLI build fan-out handed to every session's index
	// cache: cold partition builds and refinements split their
	// counting-sort passes across this many TID-range shards
	// (byte-identical output; see relation.BuildPLISharded). 0 means
	// runtime.GOMAXPROCS(0), 1 forces serial builds.
	Shards int
	// IndexBudgetBytes caps every session's PLI cache at this resident
	// byte estimate (0 = unlimited). Discovery lattices otherwise pin
	// C(arity, MaxLHS+1) partitions per dataset for the session's
	// lifetime; see relation.IndexCache.SetBudget for the eviction
	// policy.
	IndexBudgetBytes int64
	// SpillDir, when non-empty, turns budget evictions into tiered
	// demotions: every registered dataset gets a private subdirectory
	// where clean evicted PLIs are written as segment files and paged
	// back in via read-only mmap instead of rebuilt (see
	// relation.IndexCache.SetSpill). Removed with the dataset on Drop.
	// Empty (the default) keeps the pre-tiered behavior: evictions
	// discard.
	SpillDir string
}

// Engine is the dataset registry: named sessions behind an RWMutex so
// lookups from concurrent requests never contend with each other, plus
// a cache of compiled constraint sets so re-installing the same
// constraint text (e.g. every dataset of a fleet sharing one rule file)
// reuses the parsed cfd.Set instead of recompiling per dataset.
type Engine struct {
	mu          sync.RWMutex
	sessions    map[string]*Session
	reserved    map[string]bool // names mid-registration (journal write in flight)
	setCache    map[string]*cfd.Set
	dcCache     map[string]*dc.Set
	workers     int
	shards      int
	indexBudget int64
	spillDir    string

	// journal, when attached (SetJournal), makes every mutation durable
	// before it is acked; nil runs the engine in the historical
	// memory-only mode. See durable.go.
	journal Journal
}

// New creates an empty engine.
func New(opts Options) *Engine {
	return &Engine{
		sessions:    map[string]*Session{},
		reserved:    map[string]bool{},
		setCache:    map[string]*cfd.Set{},
		dcCache:     map[string]*dc.Set{},
		workers:     opts.Workers,
		shards:      opts.Shards,
		indexBudget: opts.IndexBudgetBytes,
		spillDir:    opts.SpillDir,
	}
}

// Register opens a new session named name over a private clone of data,
// with an empty constraint set. Names are unique; registering an
// existing name fails (Drop it first).
func (e *Engine) Register(name string, data *relation.Relation) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: dataset name must be non-empty")
	}
	s, err := NewSession(name, data, nil, e.workers)
	if err != nil {
		return nil, err
	}
	s.SetShards(e.shards)
	if e.indexBudget > 0 {
		s.SetIndexBudget(e.indexBudget)
	}
	if e.spillDir != "" {
		// Each dataset gets a private directory so Drop can remove its
		// segment files wholesale; MkdirTemp keeps re-registrations of a
		// reused name from colliding with files still mapped by in-flight
		// requests on the dropped session.
		if err := os.MkdirAll(e.spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: spill dir: %w", err)
		}
		dir, err := os.MkdirTemp(e.spillDir, "ds-")
		if err != nil {
			return nil, fmt.Errorf("engine: spill dir: %w", err)
		}
		store, err := relation.NewSpillStore(dir)
		if err != nil {
			return nil, fmt.Errorf("engine: spill dir: %w", err)
		}
		s.SetSpill(store)
	}
	// Reserve the name, journal the registration, then publish. The
	// journal write happens BEFORE the session is reachable, so no other
	// record for this dataset can precede its register record in the
	// log, and it happens outside e.mu so a slow fsync never blocks
	// lookups of other datasets.
	e.mu.Lock()
	if _, dup := e.sessions[name]; dup || e.reserved[name] {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: dataset %q: %w", name, ErrDuplicate)
	}
	e.reserved[name] = true
	journal := e.journal
	e.mu.Unlock()
	if journal != nil {
		if err := journal.LogRegister(name, s.data.Schema(), s.data.Tuples()); err != nil {
			e.mu.Lock()
			delete(e.reserved, name)
			e.mu.Unlock()
			return nil, notDurable(fmt.Sprintf("register of %q", name), err)
		}
	}
	s.journal = journal
	e.mu.Lock()
	delete(e.reserved, name)
	e.sessions[name] = s
	e.mu.Unlock()
	return s, nil
}

// Get returns the named session.
func (e *Engine) Get(name string) (*Session, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.sessions[name]
	return s, ok
}

// Drop removes the named session from the registry and reports whether
// it existed. In-flight requests holding the session finish normally —
// the session's spill directory is unlinked here, which on Linux leaves
// already-mapped segment files readable until their last reference
// drops (a straggler page-in of an unlinked file just falls back to a
// rebuild).
func (e *Engine) Drop(name string) bool {
	e.mu.RLock()
	journal := e.journal
	s, exists := e.sessions[name]
	e.mu.RUnlock()
	if !exists {
		return false
	}
	// Journal under the session's write lock — the same exclusion every
	// other mutation journals under — so no append/edit/constraint record
	// for this dataset can land after its drop record in the WAL (replay
	// applies records in log order and would hit an unknown dataset). The
	// dropped flag makes stale handles acquired before the drop refuse
	// further mutations instead of journaling them post-drop.
	s.mu.Lock()
	if s.dropped {
		s.mu.Unlock()
		return false
	}
	if journal != nil {
		// Journal-first: a drop that isn't durable must not be acked, or
		// recovery would resurrect the dataset. A journal failure leaves
		// the dataset in place and reports "not dropped".
		if err := journal.LogDrop(name); err != nil {
			s.mu.Unlock()
			return false
		}
	}
	s.dropped = true
	s.mu.Unlock()
	e.mu.Lock()
	// Only unpublish OUR session: a not-dropped session can't have been
	// replaced (names are freed only by Drop), but guard anyway.
	if cur, ok := e.sessions[name]; ok && cur == s {
		delete(e.sessions, name)
	}
	e.mu.Unlock()
	if dir := s.SpillDir(); dir != "" {
		os.RemoveAll(dir)
	}
	return true
}

// List returns the registered dataset names, sorted.
func (e *Engine) List() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.sessions))
	for name := range e.sessions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CompileConstraints parses constraint text against a schema, caching
// the compiled set keyed by (schema, text). Compiled sets are shared
// across sessions and must therefore never be mutated after
// installation — SetConstraints swaps whole sets, preserving that.
func (e *Engine) CompileConstraints(schema *relation.Schema, text string) (*cfd.Set, error) {
	return compileCached(e, e.setCache, schema, text, cfd.ParseSet)
}

// compileCached is the (schema, text)-keyed compile cache behind
// CompileConstraints and CompileDCs.
func compileCached[S any](e *Engine, cache map[string]*S, schema *relation.Schema, text string,
	parse func(string, *relation.Schema) (*S, error)) (*S, error) {
	key := schema.String() + "\x00" + text
	e.mu.RLock()
	set, ok := cache[key]
	e.mu.RUnlock()
	if ok {
		return set, nil
	}
	set, err := parse(text, schema)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	// Another request may have compiled the same text while we parsed;
	// keep the first so every session shares one instance.
	if prior, dup := cache[key]; dup {
		set = prior
	} else {
		if len(cache) >= maxCachedSets {
			clear(cache)
		}
		cache[key] = set
	}
	e.mu.Unlock()
	return set, nil
}

// InstallConstraints compiles text and installs the set on the named
// dataset in one step — the service path for POST /v1/constraints.
func (e *Engine) InstallConstraints(dataset, text string) (*cfd.Set, error) {
	s, ok := e.Get(dataset)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, dataset)
	}
	set, err := e.CompileConstraints(s.Schema(), text)
	if err != nil {
		return nil, err
	}
	if err := s.SetConstraints(set); err != nil {
		return nil, err
	}
	return set, nil
}
