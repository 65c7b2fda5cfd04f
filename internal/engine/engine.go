package engine

import (
	"errors"
	"fmt"
	"os"
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

// Engine is the registry of a process's sessions, plus a cache of
// compiled constraint sets so re-installing the same constraint text
// (e.g. every dataset of a fleet sharing one rule file) reuses the
// parsed cfd.Set instead of recompiling per dataset.
type Engine struct {
	registry[*Session]
	*compiler
	indexBudget int64
	spillDir    string
}

// New creates an empty engine.
func New(opts Options) *Engine {
	return &Engine{
		registry:    newRegistry[*Session](),
		compiler:    newCompiler(),
		indexBudget: opts.IndexBudgetBytes,
		spillDir:    opts.SpillDir,
	}
}

// Register opens a new session named name over a private clone of data,
// with an empty constraint set. Names are unique; registering an
// existing name fails (Drop it first).
func (e *Engine) Register(name string, data *relation.Relation) (*Session, error) {
	return e.register(name, data.Schema(), data.Tuples, func(j Journal) (*Session, error) {
		return e.open(name, data, j)
	})
}

// Add is Register behind the Registry interface.
func (e *Engine) Add(name string, data *relation.Relation) (Dataset, error) {
	return added(e.Register(name, data))
}

// open builds the session Register publishes, with the engine's
// settings and, under a spill dir, a private directory so Drop can
// remove its segment files wholesale (MkdirTemp keeps re-registrations
// of a reused name from colliding with files still mapped by in-flight
// requests on the dropped session).
func (e *Engine) open(name string, data *relation.Relation, j Journal) (*Session, error) {
	s, err := NewSession(name, data, nil)
	if err != nil {
		return nil, err
	}
	s.sets, s.journal = e.compiler, j
	if e.indexBudget > 0 {
		s.SetIndexBudget(e.indexBudget)
	}
	if e.spillDir != "" {
		if err := os.MkdirAll(e.spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: spill dir: %w", err)
		}
		dir, err := os.MkdirTemp(e.spillDir, "ds-")
		if err != nil {
			return nil, fmt.Errorf("engine: spill dir: %w", err)
		}
		store, err := relation.NewSpillStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("engine: spill dir: %w", err)
		}
		s.SetSpill(store)
	}
	return s, nil
}

// compiler caches compiled constraint sets keyed by (schema, text).
// Compiled sets are shared across sessions and must therefore never be
// mutated after installation — SetConstraints swaps whole sets,
// preserving that.
type compiler struct {
	mu   sync.RWMutex
	cfds map[string]*cfd.Set
	dcs  map[string]*dc.Set
}

func newCompiler() *compiler {
	return &compiler{cfds: map[string]*cfd.Set{}, dcs: map[string]*dc.Set{}}
}

// CompileConstraints parses constraint text against a schema through
// the cache.
func (c *compiler) CompileConstraints(schema *relation.Schema, text string) (*cfd.Set, error) {
	return compileCached(c, c.cfds, schema, text, cfd.ParseSet)
}

// CompileDCs is CompileConstraints for denial-constraint text.
func (c *compiler) CompileDCs(schema *relation.Schema, text string) (*dc.Set, error) {
	return compileCached(c, c.dcs, schema, text, dc.ParseSet)
}

func compileCached[S any](c *compiler, cache map[string]*S, schema *relation.Schema, text string,
	parse func(string, *relation.Schema) (*S, error)) (*S, error) {
	key := schema.String() + "\x00" + text
	c.mu.RLock()
	set, ok := cache[key]
	c.mu.RUnlock()
	if ok {
		return set, nil
	}
	set, err := parse(text, schema)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
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
	c.mu.Unlock()
	return set, nil
}

// Close drops every registered dataset, removing their spill
// directories — the graceful-shutdown path of cmd/semandaqd (a plain
// kill orphans the per-dataset MkdirTemp spill stores).
func (e *Engine) Close() {
	for _, name := range e.List() {
		e.Drop(name)
	}
}
