// Package engine is the long-running core of the Semandaq service: a
// registry of named datasets with compiled constraint sets that serves
// detect → repair → discover to many callers at once. It is the
// persistent-system counterpart of the one-shot pipeline in
// cmd/semandaq — HoloClean-style engines earn interactive use by keeping
// data loaded and constraints compiled across requests.
//
// A dataset is a Dataset (dataset.go) of one of two kinds: a Session
// holds it whole in this process, behind an Engine; a ClusterDataset
// (coordinator.go) range-partitions it across worker processes, behind
// a Coordinator that holds no tuple data and answers by scatter-gather.
// Engine and Coordinator embed one registry (register, drop, lookup,
// WAL replay) and both serve as a Registry, which is all
// internal/server sees of either. Batch repair, edits and DC
// relaxation are Session-only. The semandaq facade's Project is a thin
// single-user wrapper around Session.
package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/wal"
)

// ConfirmedWeight is the cell weight assigned to user-confirmed values;
// it makes the repair engine treat them as (almost) immutable relative
// to default-weight cells.
const ConfirmedWeight = 1e6

// Session is one loaded dataset with its compiled constraints and
// interaction state: cell confidences, the latest candidate repair, and
// the cached violation list. All methods are safe for concurrent use;
// reads (Detect, Violations, Summary, snapshots) share an RLock so any
// number of detection requests proceed in parallel, while mutations
// (Edit, Accept, Append, SetConstraints) serialize behind the write
// lock and bump an internal version that invalidates stale caches.
type Session struct {
	mu   sync.RWMutex
	name string
	data *relation.Relation
	set  *cfd.Set
	dcs  *dc.Set

	// indexes caches the X-partition PLIs of the session's dataset keyed
	// by attribute set, shared by detection AND discovery (Discover
	// threads it through the lattice walk). Entries self-validate
	// against the relation's per-column versions, so repeated detection
	// or discovery rebuilds nothing and a cell edit invalidates only the
	// indexes over the touched column.
	indexes *relation.IndexCache

	// spill, when set, is the session's tiered-storage home: the index
	// cache demotes budget-evicted PLIs into it (SetSpill). Owned by the
	// engine, which removes the directory when the dataset is dropped.
	spill *relation.SpillStore

	confirmed map[[2]int]bool
	candidate *repair.Result

	// sets compiles installed constraint text: the engine's shared cache
	// for a registered session, a private one for a standalone session.
	sets *compiler

	// journal, when non-nil, receives every mutation before it is acked
	// (see durable.go). Set by the engine at registration / SetJournal;
	// read and written under mu.
	journal Journal

	// dropped marks a session removed from the registry (Engine.Drop).
	// Set under mu BEFORE the drop is acked, it makes stale handles
	// acquired before the drop refuse further mutations: once the drop
	// record is in the WAL, no later record for this dataset may follow
	// it, or replay would apply it to an unknown dataset.
	dropped bool

	// version names the session's state — data, CFD set and DC set: it
	// is drawn afresh from sessionVersion at creation and on every
	// mutation (bump), so caches tagged with an older version are
	// discarded instead of stored, and a shard reply tagged with it
	// (Version) is never the tag of another state or of another session,
	// a dataset dropped and registered again under its name included.
	version uint64
	vio     cachedViolations
}

// sessionVersion issues every Session.version in the process; 0 is
// never issued.
var sessionVersion atomic.Uint64

// violationGen numbers every violation list the engine caches. It is
// process-wide, so a generation also tells two datasets' lists apart,
// and the lists of a dataset dropped and registered again under its
// name; 0 is never issued and means "not cached".
var violationGen atomic.Uint64

// cachedViolations is a dataset's cached violation list (Session and
// ClusterDataset alike). The generation changes exactly when the list's
// content can: a consumer that derived something from the list — the
// server's encoded response bodies — may keep it for as long as it sees
// the same generation. The list is immutable once stored.
type cachedViolations struct {
	list  []cfd.Violation
	gen   uint64
	valid bool
}

// store makes vs the cached list unless it is the list already held, in
// which case the old slice and its generation stay. It reports whether
// the list was replaced.
func (c *cachedViolations) store(vs []cfd.Violation) bool {
	if c.valid && slices.EqualFunc(c.list, vs, func(a, b cfd.Violation) bool {
		return a.CFD == b.CFD && a.Row == b.Row && a.Kind == b.Kind && a.Attr == b.Attr && slices.Equal(a.TIDs, b.TIDs)
	}) {
		return false
	}
	c.list, c.gen, c.valid = vs, violationGen.Add(1), true
	return true
}

func (c *cachedViolations) drop() { c.list, c.valid = nil, false }

// NewSession opens a session over a private clone of data. The
// constraint set must match the data's schema and be satisfiable (an
// unsatisfiable set cannot be repaired to). Detection and discovery fan
// out over the machine's pool (fanout.Workers).
func NewSession(name string, data *relation.Relation, set *cfd.Set) (*Session, error) {
	if set == nil {
		set = cfd.NewSet(data.Schema())
	}
	if err := checkConstraints(data.Schema(), set); err != nil {
		return nil, err
	}
	s := &Session{
		name:      name,
		data:      data.Clone(),
		set:       set,
		dcs:       dc.NewSet(data.Schema()),
		indexes:   relation.NewIndexCache(),
		confirmed: map[[2]int]bool{},
		sets:      newCompiler(),
		version:   sessionVersion.Add(1),
	}
	return s, nil
}

func checkConstraints(schema *relation.Schema, set *cfd.Set) error {
	if !schema.Equal(set.Schema()) {
		return fmt.Errorf("engine: data schema %s does not match constraint schema %s",
			schema.Name(), set.Schema().Name())
	}
	if set.Len() > 0 {
		if ok, _ := cfd.Satisfiable(set); !ok {
			return fmt.Errorf("engine: the CFD set is unsatisfiable; no repair can exist")
		}
	}
	return nil
}

// Name returns the session name.
func (s *Session) Name() string { return s.name }

// Schema returns the dataset schema (immutable; mutations never change
// it, but the underlying relation pointer is swapped by Accept/Append,
// hence the lock).
func (s *Session) Schema() *relation.Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Schema()
}

// Len returns the current number of tuples.
func (s *Session) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Len()
}

// Data returns the current working relation. The relation aliases
// session storage: treat it as read-only and use Edit/Append/Accept for
// changes, and do not hold it across mutations when other goroutines
// share the session (use Snapshot for an isolated copy).
func (s *Session) Data() *relation.Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

// Snapshot returns a deep copy of the current working relation.
func (s *Session) Snapshot() *relation.Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Clone()
}

// Constraints returns the session's current CFD set. Sets are treated
// as immutable once installed; SetConstraints swaps the whole set.
func (s *Session) Constraints() *cfd.Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.set
}

// SetConstraints replaces the constraint set (schema-checked and
// satisfiability-checked) and invalidates cached state.
func (s *Session) SetConstraints(set *cfd.Set) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := checkConstraints(s.data.Schema(), set); err != nil {
		return err
	}
	if s.journal != nil {
		// Canonical text, not the user's: replay recompiles through the
		// same parser, and canonical text round-trips for every set
		// (including discovery-installed ones that never had user text).
		if err := s.journal.LogConstraints(s.name, set.String()); err != nil {
			return notDurable("constraints", err)
		}
	}
	s.set = set
	s.mutated()
	return nil
}

// InstallConstraints compiles text and installs it (SetConstraints).
func (s *Session) InstallConstraints(text string) (*cfd.Set, error) {
	set, err := s.sets.CompileConstraints(s.Schema(), text)
	if err != nil {
		return nil, err
	}
	if err := s.SetConstraints(set); err != nil {
		return nil, err
	}
	return set, nil
}

// checkOpen must be called with the write lock held before mutating
// (and in particular before journaling): a dropped session's WAL
// history ends at its drop record, so admitting a late mutation through
// a stale handle would journal a record replay cannot apply.
func (s *Session) checkOpen() error {
	if s.dropped {
		return fmt.Errorf("engine: %w: %q", ErrUnknownDataset, s.name)
	}
	return nil
}

// mutated must be called with the write lock held after any change to
// data or CFDs.
func (s *Session) mutated() {
	s.bump()
	s.vio.drop()
	s.candidate = nil
}

// bump gives the session a new version; caller holds the write lock.
func (s *Session) bump() { s.version = sessionVersion.Add(1) }

// Version returns the session's current version. Work computed after
// reading it reflects that state or a later one, so a reply tagged with
// it can be answered "not modified" for exactly as long as Version
// still returns the same value.
func (s *Session) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Detect runs violation detection on the current data using the
// session's worker pool and refreshes the violation cache: the cached
// list is replaced only when the fresh one differs from it, so a detect
// that finds what the session already holds keeps the list's generation
// (and whatever consumers derived from it). The returned list is owned
// by the caller.
func (s *Session) Detect() (*DetectResult, error) {
	vs, gen, err := s.detect()
	if err != nil {
		return nil, err
	}
	// A copy: what detect returns may be the cached list, and a caller
	// sorting or rewriting its slice must not corrupt what Violations
	// serves to everyone else.
	return &DetectResult{Violations: slices.Clone(vs), Gen: gen}, nil
}

// detect is Detect returning the list it cached, shared and read-only,
// with its generation — or the fresh result with generation 0 when a
// mutation overtook the detection and nothing was cached.
func (s *Session) detect() ([]cfd.Violation, uint64, error) {
	// Holding the read lock across the computation is what makes
	// concurrent detection safe against in-place cell edits; other
	// readers still proceed in parallel.
	s.mu.RLock()
	ver := s.version
	vs, err := cfd.NewDetectorWithCache(s.set, s.indexes).DetectParallel(s.data, 0)
	s.mu.RUnlock()
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != ver {
		return vs, 0, nil
	}
	s.vio.store(vs)
	return s.vio.list, s.vio.gen, nil
}

// IndexStats returns the counters of the session's PLI cache, which
// backs both detection and discovery. Misses count full index builds,
// Refines count partition intersections, and Advances count cached
// partitions extended in place by appended rows: a warm steady state
// (repeated detection/discovery without mutations) shows Hits growing
// while Misses and Refines stay constant, and an append-heavy steady
// state additionally grows Advances — still with zero rebuilds.
func (s *Session) IndexStats() relation.CacheStats {
	return s.indexes.Stats()
}

// SetIndexBudget caps the session's PLI cache at the given resident
// byte estimate (0 = unlimited); see relation.IndexCache.SetBudget.
// Deep discovery-lattice partitions are evicted before the shallow
// detection partitions the service reuses on every request.
func (s *Session) SetIndexBudget(bytes int64) { s.indexes.SetBudget(bytes) }

// SetSpill attaches a spill store to the session: budget evictions of
// clean cached PLIs demote to segment files in it and page back in via
// read-only mmap instead of rebuilding (relation.IndexCache.SetSpill).
// Attach right after NewSession, before the session serves traffic.
func (s *Session) SetSpill(store *relation.SpillStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spill = store
	s.indexes.SetSpill(store)
}

// SpillDir returns the session's spill directory ("" when spilling is
// not configured). The engine removes it on Drop.
func (s *Session) SpillDir() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.spill == nil {
		return ""
	}
	return s.spill.Dir()
}

// IndexResidentBytes returns the heap bytes currently pinned by the
// session's PLI cache — what the index budget caps; paged-in mapped
// entries contribute (almost) nothing.
func (s *Session) IndexResidentBytes() int64 { return s.indexes.ResidentBytes() }

// Violations returns the cached violation list itself, which every
// caller shares and none may modify, with its generation, detecting if
// the data or constraints changed since the last Detect (generation 0
// when the list could not be cached; see detect).
func (s *Session) Violations() (*DetectResult, error) {
	s.mu.RLock()
	vio := s.vio
	s.mu.RUnlock()
	if !vio.valid {
		var err error
		if vio.list, vio.gen, err = s.detect(); err != nil {
			return nil, err
		}
	}
	return &DetectResult{Violations: vio.list, Gen: vio.gen}, nil
}

// Storage reports the session's PLI cache.
func (s *Session) Storage() Storage {
	stats, resident := s.IndexStats(), s.IndexResidentBytes()
	return Storage{IndexCache: &stats, IndexResidentBytes: &resident}
}

// weights builds the repair weight function: confirmed cells are
// near-immutable, everything else has unit weight. Caller must hold a
// lock; the returned closure reads confirmed without locking and is
// only passed to repair runs that hold the write lock.
func (s *Session) weights() repair.WeightFn {
	return func(tid, attr int) float64 {
		if s.confirmed[[2]int{tid, attr}] {
			return ConfirmedWeight
		}
		return 1
	}
}

// Repair computes (and caches) a candidate repair of the current data;
// it does NOT modify the data — inspect the result and call Accept, or
// edit cells and re-run. Repair holds the write lock for the duration
// of the computation, so it serializes with other mutations (detection
// requests queue behind it; the candidate is always computed against a
// stable snapshot).
func (s *Session) Repair() (*repair.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := repair.Batch(s.data, s.set, repair.Options{Weights: s.weights()})
	if err != nil {
		return nil, err
	}
	s.candidate = res
	return res, nil
}

// RepairAccept computes a repair and commits it in one critical
// section, so the result the caller sees is exactly what was committed
// — the atomic variant service handlers need (a separate Repair +
// Accept pair can interleave with another client's Repair and commit a
// different candidate than the one returned).
func (s *Session) RepairAccept() (*repair.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	res, err := repair.Batch(s.data, s.set, repair.Options{Weights: s.weights()})
	if err != nil {
		return nil, err
	}
	if err := s.journalChanges(res.Changes); err != nil {
		return nil, err
	}
	s.mutated()
	s.data = res.Repaired
	return res, nil
}

// journalChanges logs a repair's cell-change list (the effect, not the
// repair computation) before the commit is acked. Caller holds the
// write lock and must not commit on error.
func (s *Session) journalChanges(changes []repair.Change) error {
	if s.journal == nil || len(changes) == 0 {
		return nil
	}
	if err := s.journal.LogCells(s.name, changeCells(changes), false); err != nil {
		return notDurable("repair commit", err)
	}
	return nil
}

// Candidate returns the cached candidate repair (nil before Repair or
// after any mutation).
func (s *Session) Candidate() *repair.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.candidate
}

// Accept commits the cached candidate repair as the current data.
func (s *Session) Accept() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.candidate == nil {
		return fmt.Errorf("engine: no candidate repair; call Repair first")
	}
	if err := s.journalChanges(s.candidate.Changes); err != nil {
		return err
	}
	repaired := s.candidate.Repaired
	s.mutated()
	s.data = repaired
	return nil
}

// Edit is the interactive override: set a cell to a value and mark it
// confirmed, so subsequent repairs treat it as ground truth and resolve
// conflicts by changing other cells.
func (s *Session) Edit(tid, attr int, v relation.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkCell(tid, attr); err != nil {
		return err
	}
	if s.journal != nil {
		// Log-before-apply: the edit is fully determined up front
		// (replay's Set applies the same kind coercion), so a journal
		// failure leaves the session untouched.
		if err := s.journal.LogCells(s.name, []wal.CellWrite{{TID: tid, Attr: attr, Value: v}}, true); err != nil {
			return notDurable("edit", err)
		}
	}
	s.data.Set(tid, attr, v)
	s.confirmed[[2]int{tid, attr}] = true
	s.mutated()
	return nil
}

// Confirm marks a cell's current value as user-verified without
// changing it.
func (s *Session) Confirm(tid, attr int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkCell(tid, attr); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journal.LogConfirm(s.name, tid, attr); err != nil {
			return notDurable("confirm", err)
		}
	}
	s.confirmed[[2]int{tid, attr}] = true
	return nil
}

func (s *Session) checkCell(tid, attr int) error {
	if tid < 0 || tid >= s.data.Len() {
		return fmt.Errorf("engine: TID %d out of range", tid)
	}
	if attr < 0 || attr >= s.data.Schema().Arity() {
		return fmt.Errorf("engine: attribute %d out of range", attr)
	}
	return nil
}

// ConfirmedCells returns the confirmed cells, sorted by (TID, attr).
func (s *Session) ConfirmedCells() [][2]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][2]int, 0, len(s.confirmed))
	for c := range s.confirmed {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Append inserts new tuples into the session relation and repairs only
// them incrementally (repair.IncInPlace), assuming the current data is
// clean. This is the service route for POST /v1/repair/incremental.
//
// Unlike the one-shot repair.AppendAndRepair, nothing is cloned and the
// relation keeps its identity: the session's PLI cache survives the
// append, the incremental detection inside the repair absorbs the delta
// into the cached partitions (PLI.advance via IndexCache.GetDelta)
// instead of rebuilding them, and the repair's own cell writes come
// back as journaled patches drained into those same partitions in
// O(group) per write (PLI.patch via the cache's catch-up) — so even a
// DIRTY append (delta cells rewritten by the repair) leaves every
// cached index warm: the steady-state cost is "extend each partition by
// the delta, re-home the repaired cells", not "re-partition the
// dataset". On failure the appended rows (and any partial delta
// repairs) are rolled back with Truncate, leaving the session exactly
// as before.
func (s *Session) Append(tuples []relation.Tuple) (*repair.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	// A validly cached violation list — empty OR non-empty — survives
	// the append. Empty: the base is known clean, and IncInPlace's
	// contract is that a delta repaired onto a clean base leaves the
	// whole relation violation-free. Non-empty: IncInPlace's
	// postcondition is that the repaired delta introduces no violation
	// of its own (a delta tuple landing in a base-conflicted group makes
	// the repair error out and the append roll back instead), base cells
	// are never written, and appends can neither create nor fix a
	// base-only violation — so the cached list still names exactly the
	// grown relation's violations and the next Violations() is O(1), no
	// re-detection (asserted via cache counters in the engine tests).
	// The non-empty carry-over is re-verified by re-checking only the
	// delta tuples' groups (deltaClean — O(delta), on the same cached
	// partitions the repair just advanced/patched); a non-empty residue
	// there is never expected and falls back to plain invalidation.
	carried := s.vio
	base := s.data.Len()
	deltaTIDs := make([]int, 0, len(tuples))
	for _, t := range tuples {
		tid, err := s.data.Insert(t)
		if err != nil {
			s.data.Truncate(base)
			return nil, err
		}
		deltaTIDs = append(deltaTIDs, tid)
	}
	res, err := repair.IncInPlace(s.data, s.set, deltaTIDs, repair.Options{Weights: s.weights()}, s.indexes)
	if err != nil {
		s.data.Truncate(base)
		return nil, err
	}
	if s.journal != nil {
		// Log the delta rows' POST-repair final values, so replay is raw
		// insertion with zero repair work. A journal failure rolls the
		// append back with Truncate — the same rollback the repair-failure
		// path uses — which also invalidates every patch the repair just
		// journaled into the relation's columns, keeping the in-memory
		// state and the WAL tail (which never saw this batch) consistent.
		rows := make([]relation.Tuple, len(deltaTIDs))
		for i, tid := range deltaTIDs {
			rows[i] = s.data.Tuple(tid)
		}
		if err := s.journal.LogAppend(s.name, rows); err != nil {
			s.data.Truncate(base)
			return nil, notDurable("append", err)
		}
	}
	s.mutated()
	if carried.valid && (len(carried.list) == 0 || s.deltaClean(deltaTIDs)) {
		s.vio = carried // same list, same generation
	}
	return res, nil
}

// AppendRows is Append over raw fields, each parsed with its
// attribute's kind.
func (s *Session) AppendRows(rows [][]string) (*AppendResult, error) {
	schema := s.Schema()
	if err := checkArity(schema, rows); err != nil {
		return nil, err
	}
	tuples := make([]relation.Tuple, len(rows))
	for i, fields := range rows {
		t := make(relation.Tuple, len(fields))
		for j, f := range fields {
			v, err := relation.ParseValue(f, schema.Attr(j).Kind)
			if err != nil {
				return nil, invalid{fmt.Errorf("tuple %d: %w", i, err)}
			}
			t[j] = v
		}
		tuples[i] = t
	}
	res, err := s.Append(tuples)
	if err != nil {
		return nil, err
	}
	return &AppendResult{Appended: len(tuples), Repair: res}, nil
}

// deltaClean re-checks only the given (just-repaired) delta tuples'
// groups against every CFD and reports whether they are violation-free
// — the defensive half of Append's non-empty violation-list carry-over.
// Runs on the session's warm PLI cache with delta-tolerant lookups, so
// the cost is O(delta groups), never a rebuild. Caller holds the write
// lock.
func (s *Session) deltaClean(deltaTIDs []int) bool {
	for _, c := range s.set.All() {
		pli := s.indexes.GetDelta(s.data, c.LHS())
		if len(cfd.IncDetect(s.data, c, pli, deltaTIDs)) > 0 {
			return false
		}
	}
	return true
}

// Discover profiles the current data for CFDs. If install is true the
// discovered set replaces the session constraints (after the usual
// checks). The lattice walk runs on the session's per-dataset PLI
// cache, so a warm session (repeated discovery, or discovery after
// detection, over unchanged data) partitions nothing; within each
// lattice level the independent refinements fan out over opts.Workers
// goroutines (0, the default, is the machine's pool).
func (s *Session) Discover(opts discovery.Options, install bool) ([]*cfd.CFD, error) {
	s.mu.RLock()
	opts.Cache = s.indexes
	found, err := discovery.Discover(s.data, opts)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if found == nil {
		// Non-nil, so a session that found nothing answers [], not the
		// null of a cluster's nil.
		found = []*cfd.CFD{}
	}
	if !install {
		return found, nil
	}
	set := cfd.NewSet(s.Schema())
	for _, c := range found {
		if err := set.Add(c); err != nil {
			return nil, err
		}
	}
	if err := s.SetConstraints(set); err != nil {
		return nil, err
	}
	return found, nil
}

// Summary renders a short session status report.
func (s *Session) Summary() (string, error) {
	res, err := s.Violations()
	if err != nil {
		return "", err
	}
	vs := res.Violations
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "project %s: %d tuples over %s\n", s.name, s.data.Len(), s.data.Schema())
	fmt.Fprintf(&b, "constraints: %d CFDs, %d pattern rows\n", s.set.Len(), s.set.TotalRows())
	constCount, varCount := 0, 0
	for _, v := range vs {
		if v.Kind == cfd.ConstViolation {
			constCount++
		} else {
			varCount++
		}
	}
	fmt.Fprintf(&b, "violations: %d constant, %d variable (%d tuples involved)\n",
		constCount, varCount, len(cfd.ViolatingTIDs(vs)))
	fmt.Fprintf(&b, "confirmed cells: %d\n", len(s.confirmed))
	if s.candidate != nil {
		fmt.Fprintf(&b, "candidate repair: %d changes, cost %.2f\n",
			len(s.candidate.Changes), s.candidate.Cost)
	}
	return b.String(), nil
}

// FormatChanges renders a candidate repair's change list for review.
func FormatChanges(r *relation.Relation, changes []repair.Change, limit int) string {
	var b strings.Builder
	for i, ch := range changes {
		if limit > 0 && i == limit {
			fmt.Fprintf(&b, "... (%d more changes)\n", len(changes)-limit)
			break
		}
		fmt.Fprintf(&b, "tuple %d, %s: %s -> %s\n",
			ch.TID, r.Schema().Attr(ch.Attr).Name, ch.From, ch.To)
	}
	return b.String()
}
