package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/relation"
)

// ErrWorker tags failures of a worker RPC so the HTTP layer can answer
// 502 (upstream worker unreachable or misbehaving) instead of 500.
var ErrWorker = errors.New("worker error")

// Cause sentinels the shard client attaches under ErrWorker so the
// per-worker stats can label failures by cause. An ErrWorker without a
// finer tag counts as a transport error.
var (
	// ErrWorkerTimeout tags a worker call that exceeded its deadline.
	ErrWorkerTimeout = errors.New("worker timeout")
	// ErrWorkerUpstream tags a worker reply with a 5xx status.
	ErrWorkerUpstream = errors.New("worker upstream status")
)

// causeOf labels a worker error for stats and degraded-result reports.
func causeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrWorkerTimeout):
		return "timeout"
	case errors.Is(err, ErrWorkerUpstream):
		return "http_5xx"
	default:
		return "transport"
	}
}

// ShardClient is the coordinator's view of one worker process. The HTTP
// implementation lives in internal/server; tests use in-process fakes.
// TIDs in every result are shard-LOCAL — the coordinator owns the
// global translation.
type ShardClient interface {
	// URL identifies the worker in stats and errors.
	URL() string
	// Register creates the worker's slice of a dataset from exact
	// tuples (the worker ingests via RegisterExact).
	Register(dataset string, schema *relation.Schema, tuples []relation.Tuple) error
	// Drop removes the worker's slice; dropping an unknown dataset is
	// not an error.
	Drop(dataset string) error
	// InstallConstraints installs CFD text on the worker's slice.
	InstallConstraints(dataset, cfds string) error
	// InstallDCs installs denial-constraint text on the worker's slice.
	InstallDCs(dataset, dcs string) error
	// ShardDetect runs shard-local detection. set carries the
	// coordinator's compiled CFDs (same text, same order as installed on
	// the worker) so returned violations reference the coordinator's CFD
	// pointers; cfds is the text to detect when it differs from the
	// installed set ("" = installed).
	ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error)
	// ShardGroups fetches one query's boundary-group summaries (local
	// TIDs) — ShardGroupsBatch of a single summary query.
	ShardGroups(dataset string, partAttrs, valAttrs []int, keys []string) ([]cfd.BoundaryGroup, error)
	// ShardGroupsBatch answers several boundary queries in one round
	// trip: out[i][k] is the worker's side of queries[i].Keys[k].
	ShardGroupsBatch(dataset string, queries []cfd.GroupQuery) ([][]cfd.BoundaryGroup, error)
	// ShardDCs runs shard-local DC detection for every installed DC,
	// keyed by DC name.
	ShardDCs(dataset string) (map[string]dc.ShardResult, error)
	// Append routes raw tuple fields to the worker's incremental repair
	// path and returns the number appended.
	Append(dataset string, tuples [][]string) (int, error)
	// Discover profiles the worker's slice and returns the discovered
	// CFDs' canonical strings.
	Discover(dataset string, minSupport, maxLHS int) ([]string, error)
}

// WorkerCall is one worker's share of a fan-out, for latency reporting.
type WorkerCall struct {
	URL       string  `json:"url"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// WorkerTotals is a worker's cumulative fan-out accounting in
// /v1/stats. Failed calls are additionally labeled by cause: a
// deadline overrun (timeouts), a 5xx reply (http_5xx — the worker was
// reachable but failing, e.g. mid-recovery), or any other transport
// fault (connection refused/reset).
type WorkerTotals struct {
	Calls      uint64  `json:"calls"`
	TotalMS    float64 `json:"total_ms"`
	Errors     uint64  `json:"errors"`
	Timeouts   uint64  `json:"timeouts"`
	HTTP5xx    uint64  `json:"http_5xx"`
	Transport  uint64  `json:"transport_errors"`
	Retries    uint64  `json:"retries"`
	LastErrMsg string  `json:"last_error,omitempty"`
}

// ClusterDataset is the coordinator's record of one range-partitioned
// dataset: worker w owns global TIDs [offset(w), offset(w)+counts[w]).
// The coordinator holds NO tuple data — only the schema, the compiled
// constraint sets (for the merge), and the per-worker counts.
type ClusterDataset struct {
	mu      sync.RWMutex
	name    string
	schema  *relation.Schema
	counts  []int
	cfds    *cfd.Set
	cfdText string
	dcs     *dc.Set
	dcText  string

	// wm serializes this dataset's mutations (worker apply + journal
	// append) so the WAL's record order matches the order the cluster
	// actually applied the mutations in — the invariant replay depends
	// on. Held across the worker RPC, unlike mu, which only guards the
	// in-memory fields.
	wm sync.Mutex

	// dropped, guarded by wm, marks the dataset removed. Drop journals
	// its record under wm and sets this before unpublishing, so a
	// mutation racing the drop either journals wholly before the drop
	// record or sees the flag and refuses — the WAL never orders a
	// mutation record after its dataset's drop record.
	dropped bool

	// vio is the cached global violation list and stats the merge that
	// produced it: replaced together, so one generation names both.
	// version counts the mutations that drop vio (append, constraint
	// install); a detect that scattered under an older version answers
	// its caller but is not cached.
	vio     cachedViolations
	stats   cfd.MergeStats
	version uint64
}

// Name returns the dataset name.
func (cd *ClusterDataset) Name() string { return cd.name }

// Schema returns the dataset schema.
func (cd *ClusterDataset) Schema() *relation.Schema { return cd.schema }

// Len returns the cluster-wide tuple count.
func (cd *ClusterDataset) Len() int {
	cd.mu.RLock()
	defer cd.mu.RUnlock()
	n := 0
	for _, c := range cd.counts {
		n += c
	}
	return n
}

// Counts returns the per-worker tuple counts.
func (cd *ClusterDataset) Counts() []int {
	cd.mu.RLock()
	defer cd.mu.RUnlock()
	return append([]int(nil), cd.counts...)
}

// Constraints returns the coordinator's compiled CFD set.
func (cd *ClusterDataset) Constraints() *cfd.Set {
	cd.mu.RLock()
	defer cd.mu.RUnlock()
	return cd.cfds
}

// DCs returns the coordinator's compiled DC set.
func (cd *ClusterDataset) DCs() *dc.Set {
	cd.mu.RLock()
	defer cd.mu.RUnlock()
	return cd.dcs
}

func (cd *ClusterDataset) offsets() []int {
	out := make([]int, len(cd.counts))
	off := 0
	for i, c := range cd.counts {
		out[i] = off
		off += c
	}
	return out
}

// Coordinator fans requests out to worker processes and merges their
// shard-local results into globally exact answers (cfd.MergeShards /
// dc.MergeShards). It is the cluster-mode counterpart of Engine.
type Coordinator struct {
	clients []ShardClient

	mu       sync.RWMutex
	datasets map[string]*ClusterDataset
	workerNS map[string]*WorkerTotals

	// journal, when attached (SetJournal), records every registry
	// mutation — register (with full rows: the coordinator holds no
	// tuple data, so the WAL doubles as the worker re-feed source),
	// raw appends, constraint/DC text, drops — before the client is
	// acked. See cluster_durable.go for the recovery side.
	journal Journal
}

// SetJournal attaches (or detaches, with nil) the coordinator's
// durability journal. Attach AFTER recovery has replayed the log.
func (c *Coordinator) SetJournal(j Journal) {
	c.mu.Lock()
	c.journal = j
	c.mu.Unlock()
}

func (c *Coordinator) getJournal() Journal {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.journal
}

// NewCoordinator builds a coordinator over the given workers (at least
// one).
func NewCoordinator(clients []ShardClient) (*Coordinator, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("engine: coordinator needs at least one worker")
	}
	return &Coordinator{
		clients:  clients,
		datasets: map[string]*ClusterDataset{},
		workerNS: map[string]*WorkerTotals{},
	}, nil
}

// Workers returns the worker URLs in shard order.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.clients))
	for i, cl := range c.clients {
		out[i] = cl.URL()
	}
	return out
}

// RetryReporter is the optional ShardClient extension that exposes the
// client's cumulative retry count for /v1/stats.
type RetryReporter interface {
	Retries() uint64
}

// WorkerStats returns each worker's cumulative fan-out call count,
// latency and cause-labeled error counters — the coordinator side of
// GET /v1/stats.
func (c *Coordinator) WorkerStats() map[string]WorkerTotals {
	c.mu.RLock()
	out := make(map[string]WorkerTotals, len(c.workerNS))
	for url, t := range c.workerNS {
		out[url] = *t
	}
	c.mu.RUnlock()
	for _, cl := range c.clients {
		if rr, ok := cl.(RetryReporter); ok {
			t := out[cl.URL()]
			t.Retries = rr.Retries()
			out[cl.URL()] = t
		}
	}
	return out
}

func (c *Coordinator) recordWorker(url string, d time.Duration, err error) {
	c.mu.Lock()
	t := c.workerNS[url]
	if t == nil {
		t = &WorkerTotals{}
		c.workerNS[url] = t
	}
	t.Calls++
	t.TotalMS += float64(d.Microseconds()) / 1000
	if err != nil {
		t.Errors++
		switch causeOf(err) {
		case "timeout":
			t.Timeouts++
		case "http_5xx":
			t.HTTP5xx++
		default:
			t.Transport++
		}
		t.LastErrMsg = err.Error()
	}
	c.mu.Unlock()
}

// fanOutAll runs fn(w, client) for every worker concurrently,
// recording per-worker latency and cause-labeled errors, and returns
// every call's timing plus every worker's (tagged) error — the
// partial-result primitive degraded detection is built on.
func (c *Coordinator) fanOutAll(fn func(w int, cl ShardClient) error) ([]WorkerCall, []error) {
	calls := make([]WorkerCall, len(c.clients))
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for w, cl := range c.clients {
		wg.Add(1)
		go func(w int, cl ShardClient) {
			defer wg.Done()
			start := time.Now()
			err := fn(w, cl)
			if err != nil && !errors.Is(err, ErrWorker) {
				err = fmt.Errorf("%w: %s: %v", ErrWorker, cl.URL(), err)
			}
			errs[w] = err
			elapsed := time.Since(start)
			calls[w] = WorkerCall{URL: cl.URL(), ElapsedMS: float64(elapsed.Microseconds()) / 1000}
			c.recordWorker(cl.URL(), elapsed, err)
		}(w, cl)
	}
	wg.Wait()
	return calls, errs
}

// fanOut is the fail-fast wrapper: the first worker error wins.
func (c *Coordinator) fanOut(fn func(w int, cl ShardClient) error) ([]WorkerCall, error) {
	calls, errs := c.fanOutAll(fn)
	for _, err := range errs {
		if err != nil {
			return calls, err
		}
	}
	return calls, nil
}

// Register range-partitions data across the workers (even slices,
// remainder on the leading shards) and registers each slice. On any
// failure the already-registered slices are dropped.
func (c *Coordinator) Register(name string, data *relation.Relation) (*ClusterDataset, error) {
	return c.register(name, data.Schema(), data.Tuples())
}

// register is Register over bare rows — the form recovery replays
// (ApplyRegister). Slices alias rows; clients only read them.
func (c *Coordinator) register(name string, schema *relation.Schema, rows []relation.Tuple) (*ClusterDataset, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: dataset name must be non-empty")
	}
	c.mu.Lock()
	if _, dup := c.datasets[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("engine: dataset %q: %w", name, ErrDuplicate)
	}
	// Reserve the name so concurrent registrations don't double-ship.
	c.datasets[name] = nil
	c.mu.Unlock()

	w := len(c.clients)
	size, rem := len(rows)/w, len(rows)%w
	counts := make([]int, w)
	slices := make([][]relation.Tuple, w)
	tid := 0
	for i := range slices {
		counts[i] = size
		if i < rem {
			counts[i]++
		}
		slices[i] = rows[tid : tid+counts[i]]
		tid += counts[i]
	}
	undo := func() {
		for _, cl := range c.clients {
			_ = cl.Drop(name)
		}
		c.mu.Lock()
		delete(c.datasets, name)
		c.mu.Unlock()
	}
	_, err := c.fanOut(func(w int, cl ShardClient) error {
		return cl.Register(name, schema, slices[w])
	})
	if err != nil {
		undo()
		return nil, err
	}
	// Journal the FULL rows before publishing: the coordinator keeps no
	// tuple data, so the register record is what re-feeds the workers
	// their slices at recovery. A non-durable register is undone (the
	// workers drop their slices) rather than acked.
	if j := c.getJournal(); j != nil {
		if err := j.LogRegister(name, schema, rows); err != nil {
			undo()
			return nil, notDurable(fmt.Sprintf("register of %q", name), err)
		}
	}
	cd := &ClusterDataset{
		name:   name,
		schema: schema,
		counts: counts,
		cfds:   cfd.NewSet(schema),
		dcs:    dc.NewSet(schema),
	}
	c.mu.Lock()
	c.datasets[name] = cd
	c.mu.Unlock()
	c.mirrorRegistry()
	return cd, nil
}

// Get returns the named cluster dataset.
func (c *Coordinator) Get(name string) (*ClusterDataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cd, ok := c.datasets[name]
	if !ok || cd == nil {
		return nil, false
	}
	return cd, true
}

// List returns the registered dataset names, sorted.
func (c *Coordinator) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.datasets))
	for name, cd := range c.datasets {
		if cd != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Drop removes the dataset cluster-wide and reports whether it
// existed. Journal-first, like Engine.Drop: a drop that isn't durable
// must not be acked, or recovery would resurrect the dataset.
func (c *Coordinator) Drop(name string) bool {
	cd, ok := c.Get(name)
	if !ok {
		return false
	}
	// Journal under wm — the exclusion every mutation journals under —
	// so a racing append/install either lands wholly before the drop
	// record or sees cd.dropped and refuses; the WAL never carries a
	// record for this dataset after its drop record.
	cd.wm.Lock()
	if cd.dropped {
		cd.wm.Unlock()
		return false
	}
	if j := c.getJournal(); j != nil {
		if err := j.LogDrop(name); err != nil {
			cd.wm.Unlock()
			return false
		}
	}
	cd.dropped = true
	cd.wm.Unlock()
	c.mu.Lock()
	if cur, ok := c.datasets[name]; ok && cur == cd {
		delete(c.datasets, name)
	}
	c.mu.Unlock()
	_, _ = c.fanOut(func(_ int, cl ShardClient) error { return cl.Drop(name) })
	c.mirrorRegistry()
	return true
}

// InstallConstraints compiles CFD text locally (the coordinator's merge
// needs the set) and installs the same text on every worker's slice.
func (c *Coordinator) InstallConstraints(name, text string) (*cfd.Set, error) {
	cd, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	set, err := cfd.ParseSet(text, cd.schema)
	if err != nil {
		return nil, err
	}
	cd.wm.Lock()
	defer cd.wm.Unlock()
	if cd.dropped {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	if _, err := c.fanOut(func(_ int, cl ShardClient) error {
		return cl.InstallConstraints(name, text)
	}); err != nil {
		return nil, err
	}
	if j := c.getJournal(); j != nil {
		if err := j.LogConstraints(name, text); err != nil {
			return nil, notDurable(fmt.Sprintf("constraints for %q", name), err)
		}
	}
	cd.mu.Lock()
	cd.cfds, cd.cfdText = set, text
	cd.vio.drop()
	cd.version++
	cd.mu.Unlock()
	c.mirrorRegistry()
	return set, nil
}

// InstallDCs compiles DC text locally and installs it on every worker.
func (c *Coordinator) InstallDCs(name, text string) (*dc.Set, error) {
	cd, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	set, err := dc.ParseSet(text, cd.schema)
	if err != nil {
		return nil, err
	}
	// Reject unpartitionable DCs at install time, not mid-detect.
	if len(c.clients) > 1 {
		for _, d := range set.All() {
			if d.TwoTuple() && len(d.EqualityAttrs()) == 0 {
				return nil, fmt.Errorf("engine: DC %s has no cross-side equality predicate; it cannot be detected across %d workers", d.Name(), len(c.clients))
			}
		}
	}
	cd.wm.Lock()
	defer cd.wm.Unlock()
	if cd.dropped {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	if _, err := c.fanOut(func(_ int, cl ShardClient) error {
		return cl.InstallDCs(name, text)
	}); err != nil {
		return nil, err
	}
	if j := c.getJournal(); j != nil {
		if err := j.LogDCs(name, text); err != nil {
			return nil, notDurable(fmt.Sprintf("DCs for %q", name), err)
		}
	}
	cd.mu.Lock()
	cd.dcs, cd.dcText = set, text
	cd.mu.Unlock()
	c.mirrorRegistry()
	return set, nil
}

// WorkerFailure identifies one worker whose shard results are missing
// from a degraded detection, with the failure's cause label
// ("timeout", "http_5xx" or "transport").
type WorkerFailure struct {
	URL   string `json:"url"`
	Cause string `json:"cause"`
	Err   string `json:"error,omitempty"`
}

// DetectResult is one scatter-gather detection outcome.
type DetectResult struct {
	Violations []cfd.Violation
	Stats      cfd.MergeStats
	// Workers are the per-worker shard-detect latencies of this call.
	Workers []WorkerCall
	// Gen is the generation of the cached list this result equals, 0
	// when it was not cached (see Session.SharedViolations).
	Gen uint64
	// Degraded reports that one or more workers failed mid-detect and
	// their shards are absent from the merge: Violations is a sound
	// partial answer over the surviving shards, never a silent global
	// one. Degraded results are not cached.
	Degraded bool
	// Failed lists the workers excluded from a degraded merge.
	Failed []WorkerFailure
}

// Detect fans detection of the installed constraints out to the
// workers and merges the shard results into the single-process-exact
// global violation list (cfd.MergeShards), caching it like
// Session.Detect does — replacing the cached list only when the fresh
// one differs. If a worker dies mid-detect the merge degrades
// gracefully: the result covers the surviving shards and carries
// Degraded plus the failed workers, instead of a blanket error — only
// all workers failing is an error.
func (c *Coordinator) Detect(name string) (*DetectResult, error) {
	cd, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	cd.mu.RLock()
	set, offsets, ver := cd.cfds, cd.offsets(), cd.version
	cd.mu.RUnlock()
	res, err := c.detectSet(name, "", set, offsets, true)
	if err != nil {
		return nil, err
	}
	cd.mu.Lock()
	// An append or install that finished since the scatter began made
	// this list the previous state's; only cache what is current — and
	// never cache a degraded (partial) answer.
	if cd.version == ver && !res.Degraded {
		// Cache a copy: the returned slice is caller-owned.
		if cd.vio.store(slices.Clone(res.Violations)) {
			cd.stats = res.Stats
		}
		res.Gen = cd.vio.gen
	}
	cd.mu.Unlock()
	return res, nil
}

// detectSet is the two-phase scatter-gather core: fan out shard
// detection of set (cfds = the set's text when it differs from the
// installed one, "" otherwise), then merge after one round of
// boundary-group summaries.
// A racing append can shift shard state between the two phases; the
// merge tolerates short or missing groups, and exactness is guaranteed
// for quiescent data (the property the tests pin).
//
// allowPartial turns worker failures into a degraded partial result:
// a failed worker's shard results are replaced by empty ones (one
// zero-valued ShardResult per CFD, empty boundary groups), which the
// merge tolerates, and the worker lands in Failed. Strict callers
// (Discover's candidate verification — a partial verdict could verify
// a globally-violated candidate) pass false and get the first error.
func (c *Coordinator) detectSet(name, cfds string, set *cfd.Set, offsets []int, allowPartial bool) (*DetectResult, error) {
	results := make([][]cfd.ShardResult, len(c.clients))
	calls, errs := c.fanOutAll(func(w int, cl ShardClient) error {
		sr, err := cl.ShardDetect(name, cfds, set)
		results[w] = sr
		return err
	})
	// failed[w] records the worker's first error across both phases.
	failed := make(map[int]error)
	for w, err := range errs {
		if err != nil {
			failed[w] = err
		}
	}
	if len(failed) > 0 {
		if !allowPartial || len(failed) == len(c.clients) {
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		}
		for w := range failed {
			// MergeShards requires one ShardResult per CFD per worker; a
			// zero-valued ShardResult contributes nothing to the merge.
			results[w] = make([]cfd.ShardResult, len(set.All()))
		}
	}
	// One boundary round: each worker gets every CFD's boundary keys in
	// a single call and answers with per-group summaries.
	fetch := func(queries []cfd.GroupQuery) ([][][]cfd.BoundaryGroup, error) {
		sides := make([][][]cfd.BoundaryGroup, len(c.clients))
		_, ferrs := c.fanOutAll(func(w int, cl ShardClient) error {
			if _, dead := failed[w]; dead {
				// Already excluded in phase 1 — don't poke a dead worker.
				return nil
			}
			reply, err := cl.ShardGroupsBatch(name, queries)
			if err != nil {
				return err
			}
			for _, groups := range reply {
				for _, g := range groups {
					for m := range g.TIDs {
						g.TIDs[m] += offsets[w]
					}
				}
			}
			sides[w] = reply
			return nil
		})
		for w, err := range ferrs {
			if err == nil {
				continue
			}
			// A worker lost between the two rounds contributes no
			// summaries; its phase-1 groups stay in the merge.
			if _, dup := failed[w]; !dup {
				failed[w] = err
			}
			if !allowPartial || len(failed) == len(c.clients) {
				return nil, err
			}
		}
		return sides, nil
	}
	vios, stats, err := cfd.MergeShardsBatch(set, offsets, results, fetch)
	if err != nil {
		return nil, err
	}
	res := &DetectResult{Violations: vios, Stats: stats, Workers: calls}
	if len(failed) > 0 {
		res.Degraded = true
		ws := make([]int, 0, len(failed))
		for w := range failed {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			res.Failed = append(res.Failed, WorkerFailure{
				URL:   c.clients[w].URL(),
				Cause: causeOf(failed[w]),
				Err:   failed[w].Error(),
			})
		}
	}
	return res, nil
}

// Violations returns the cached violation list — the shared slice,
// read-only, with its generation — re-detecting if stale.
func (c *Coordinator) Violations(name string) (*DetectResult, error) {
	cd, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	cd.mu.RLock()
	vio, stats := cd.vio, cd.stats
	cd.mu.RUnlock()
	if vio.valid {
		return &DetectResult{Violations: vio.list, Stats: stats, Gen: vio.gen}, nil
	}
	return c.Detect(name)
}

// Append routes new tuples (raw positional fields) to the tail worker —
// the owner of the growing end of the TID space — and invalidates the
// violation cache. Shard-local incremental repair runs on that worker;
// cross-shard effects of the repaired delta surface at the next
// distributed detect.
func (c *Coordinator) Append(name string, tuples [][]string) (int, error) {
	cd, ok := c.Get(name)
	if !ok {
		return 0, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	last := len(c.clients) - 1
	cd.wm.Lock()
	defer cd.wm.Unlock()
	if cd.dropped {
		return 0, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	start := time.Now()
	n, err := c.clients[last].Append(name, tuples)
	c.recordWorker(c.clients[last].URL(), time.Since(start), err)
	if err != nil {
		return 0, err
	}
	var jerr error
	if j := c.getJournal(); j != nil {
		// Journal the RAW fields: the tail worker repairs the delta
		// locally, so replay re-feeds the same raw rows through the same
		// worker-side append path.
		jerr = j.LogAppendRaw(name, tuples)
	}
	// The worker already applied the rows, so the counts must advance
	// even when journaling fails — stale counts would corrupt every
	// later merge's TID offsets (a silent wrong answer). The error still
	// reaches the client un-acked; the memory/WAL divergence heals at
	// the next restart's replay.
	cd.mu.Lock()
	cd.counts[last] += n
	cd.vio.drop()
	cd.version++
	cd.mu.Unlock()
	if jerr != nil {
		return 0, notDurable(fmt.Sprintf("append to %q", name), jerr)
	}
	return n, nil
}

// Discover fans discovery out to the workers, keeps the candidates
// every shard agrees on (intersection by canonical CFD string — a CFD
// holding globally holds on every slice, so the intersection is a
// superset of the global result modulo per-shard min-support skew),
// then verifies each candidate with a distributed detect: candidates
// with zero global violations hold. install replaces the installed set
// cluster-wide with the verified survivors.
func (c *Coordinator) Discover(name string, minSupport, maxLHS int, install bool) ([]string, error) {
	cd, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	found := make([][]string, len(c.clients))
	if _, err := c.fanOut(func(w int, cl ShardClient) error {
		fs, err := cl.Discover(name, minSupport, maxLHS)
		found[w] = fs
		return err
	}); err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, fs := range found {
		for _, f := range fs {
			counts[f]++
		}
	}
	var candidates []string
	for _, f := range found[0] {
		if counts[f] == len(c.clients) {
			candidates = append(candidates, f)
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	text := ""
	for _, f := range candidates {
		text += f + "\n"
	}
	candSet, err := cfd.ParseSet(text, cd.schema)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling discovery candidates: %w", err)
	}
	cd.mu.RLock()
	offsets := cd.offsets()
	cd.mu.RUnlock()
	// Strict: verifying a candidate against a partial merge could
	// install a globally-violated CFD.
	res, err := c.detectSet(name, text, candSet, offsets, false)
	if err != nil {
		return nil, err
	}
	violated := map[*cfd.CFD]bool{}
	for _, v := range res.Violations {
		violated[v.CFD] = true
	}
	var holds []string
	for _, cc := range candSet.All() {
		if !violated[cc] {
			holds = append(holds, cc.String())
		}
	}
	if install && len(holds) > 0 {
		keep := ""
		for _, h := range holds {
			keep += h + "\n"
		}
		if _, err := c.InstallConstraints(name, keep); err != nil {
			return nil, err
		}
	}
	return holds, nil
}

// DetectDCs fans DC detection out to the workers and merges each DC's
// shard results (dc.MergeShards), truncating each DC's (T,U)-sorted
// list at limit like Session.DetectDCs.
func (c *Coordinator) DetectDCs(name string, limit int) ([]DCReport, []dc.MergeStats, error) {
	cd, ok := c.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	cd.mu.RLock()
	set, offsets := cd.dcs, cd.offsets()
	cd.mu.RUnlock()
	all := set.All()
	if len(all) == 0 {
		return []DCReport{}, nil, nil
	}
	shardRes := make([]map[string]dc.ShardResult, len(c.clients))
	if _, err := c.fanOut(func(w int, cl ShardClient) error {
		m, err := cl.ShardDCs(name)
		shardRes[w] = m
		return err
	}); err != nil {
		return nil, nil, err
	}
	reports := make([]DCReport, 0, len(all))
	allStats := make([]dc.MergeStats, 0, len(all))
	for _, d := range all {
		perShard := make([]dc.ShardResult, len(c.clients))
		for w := range c.clients {
			perShard[w] = shardRes[w][d.Name()]
		}
		fetch := func(keys []string) ([][]dc.BoundaryTuples, error) {
			query := cfd.GroupQuery{PartAttrs: d.EqualityAttrs(), ValAttrs: d.ReferencedAttrs(), Rows: true}
			for _, k := range keys {
				query.Keys = append(query.Keys, []byte(k))
			}
			members := make([][]dc.BoundaryTuples, len(c.clients))
			_, ferr := c.fanOut(func(w int, cl ShardClient) error {
				sides, err := cl.ShardGroupsBatch(name, []cfd.GroupQuery{query})
				if err != nil {
					return err
				}
				bts := make([]dc.BoundaryTuples, len(sides[0]))
				for i, g := range sides[0] {
					tids := make([]int, len(g.TIDs))
					for m, tid := range g.TIDs {
						tids[m] = tid + offsets[w]
					}
					bts[i] = dc.BoundaryTuples{TIDs: tids, Rows: g.Rows}
				}
				members[w] = bts
				return nil
			})
			return members, ferr
		}
		vios, stats, err := dc.MergeShards(d, offsets, perShard, fetch, limit)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, DCReport{
			Name:       d.Name(),
			Constraint: d.String(),
			Violations: vios,
			Truncated:  limit > 0 && len(vios) == limit,
		})
		allStats = append(allStats, stats)
	}
	return reports, allStats, nil
}
