package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
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
	// installed set ("" = installed). A worker whose slice did not
	// change may be answered with the very reply returned before, so a
	// reply is read-only; the coordinator's merge memo keys on that
	// identity.
	ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error)
	// ShardGroups fetches one query's boundary-group summaries (local
	// TIDs) — ShardGroupsBatch of a single summary query.
	ShardGroups(dataset string, partAttrs, valAttrs []int, keys []string) ([]cfd.BoundaryGroup, error)
	// ShardGroupsBatch answers several boundary queries in one round
	// trip: out[i][k] is the worker's side of queries[i].Keys[k].
	ShardGroupsBatch(dataset string, queries []cfd.GroupQuery) ([][]cfd.BoundaryGroup, error)
	// ShardDCs runs shard-local DC detection for every installed DC,
	// keyed by DC name; read-only, like ShardDetect's reply.
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
	Calls     uint64  `json:"calls"`
	TotalMS   float64 `json:"total_ms"`
	Errors    uint64  `json:"errors"`
	Timeouts  uint64  `json:"timeouts"`
	HTTP5xx   uint64  `json:"http_5xx"`
	Transport uint64  `json:"transport_errors"`
	Retries   uint64  `json:"retries"`
	// NotModified counts the worker's phase-1 replies that came back
	// 304: answered from the client's copy, with no detection run.
	NotModified uint64 `json:"not_modified"`
	LastErrMsg  string `json:"last_error,omitempty"`
}

// ClusterDataset is the coordinator's record of one range-partitioned
// dataset: worker w owns global TIDs [offset(w), offset(w)+counts[w]).
// The coordinator holds NO tuple data — only the schema, the compiled
// constraint sets (for the merge), and the per-worker counts — and
// answers every Dataset operation by fanning out to its workers.
type ClusterDataset struct {
	c       *Coordinator
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

	// journal and dropped are guarded by wm. Drop journals its record
	// under wm and sets dropped before unpublishing, so a mutation racing
	// the drop either journals wholly before the drop record or sees the
	// flag and refuses — the WAL never orders a mutation record after its
	// dataset's drop record.
	journal Journal
	dropped bool

	// vio is the cached global violation list and stats the merge that
	// produced it: replaced together, so one generation names both.
	// version counts the mutations that drop vio (append, constraint
	// install); a detect that scattered under an older version answers
	// its caller but is not cached.
	vio     cachedViolations
	stats   cfd.MergeStats
	version uint64

	// merged is what vio was merged from: stored with it, and current
	// only while version has not moved. A detect whose every worker hands
	// back the very reply merged holds (a 304 from an unchanged shard)
	// has nothing new to merge.
	merged struct {
		version uint64
		set     *cfd.Set
		replies [][]cfd.ShardResult
	}
	// dcMemo is the last DC merge and what it was computed from.
	dcMemo *dcMerge
}

// dcMerge is one DetectDCs answer with its inputs: the DC set, the
// limit, the offsets and every worker's phase-1 reply.
type dcMerge struct {
	set     *dc.Set
	limit   int
	offsets []int
	replies []map[string]dc.ShardResult
	reports []DCReport
	stats   []dc.MergeStats
}

// sameReplies reports whether every worker's reply in a is the very
// slice it is in b — the reply a client hands back again on a 304.
func sameReplies(a, b [][]cfd.ShardResult) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if len(a[w]) != len(b[w]) || len(a[w]) > 0 && &a[w][0] != &b[w][0] {
			return false
		}
	}
	return true
}

// sameDCReplies is sameReplies for DC replies: the same map, not an
// equal one.
func sameDCReplies(a, b []map[string]dc.ShardResult) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if reflect.ValueOf(a[w]).UnsafePointer() != reflect.ValueOf(b[w]).UnsafePointer() {
			return false
		}
	}
	return true
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

// Storage reports the per-worker tuple counts.
func (cd *ClusterDataset) Storage() Storage { return Storage{Shards: cd.Counts()} }

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
// dc.MergeShards). It is the cluster-mode counterpart of Engine, with
// the same registry. Its journal records register (with full rows: the
// coordinator holds no tuple data, so the WAL doubles as the worker
// re-feed source), raw appends, constraint/DC text and drops; see
// cluster_durable.go for the recovery side.
type Coordinator struct {
	registry[*ClusterDataset]
	clients []ShardClient

	statsMu  sync.Mutex
	workerNS map[string]*WorkerTotals
}

// NewCoordinator builds a coordinator over the given workers (at least
// one).
func NewCoordinator(clients []ShardClient) (*Coordinator, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("engine: coordinator needs at least one worker")
	}
	return &Coordinator{
		registry: newRegistry[*ClusterDataset](),
		clients:  clients,
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

// NotModifiedReporter is the optional ShardClient extension that
// exposes how many of the worker's replies came back 304 for /v1/stats.
type NotModifiedReporter interface {
	NotModified() uint64
}

// WorkerStats returns each worker's cumulative fan-out call count,
// latency and cause-labeled error counters — the coordinator side of
// GET /v1/stats.
func (c *Coordinator) WorkerStats() map[string]WorkerTotals {
	c.statsMu.Lock()
	out := make(map[string]WorkerTotals, len(c.workerNS))
	for url, t := range c.workerNS {
		out[url] = *t
	}
	c.statsMu.Unlock()
	for _, cl := range c.clients {
		t := out[cl.URL()]
		if rr, ok := cl.(RetryReporter); ok {
			t.Retries = rr.Retries()
		}
		if nm, ok := cl.(NotModifiedReporter); ok {
			t.NotModified = nm.NotModified()
		}
		out[cl.URL()] = t
	}
	return out
}

func (c *Coordinator) recordWorker(url string, d time.Duration, err error) {
	c.statsMu.Lock()
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
	c.statsMu.Unlock()
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
	return c.registerRows(name, data.Schema(), data.Tuples())
}

// Add is Register behind the Registry interface.
func (c *Coordinator) Add(name string, data *relation.Relation) (Dataset, error) {
	return added(c.Register(name, data))
}

// registerRows is Register over bare rows — the form recovery replays
// (ApplyRegister). Slices alias rows; clients only read them. The
// register record carries the FULL rows: the coordinator keeps no tuple
// data, so it is what re-feeds the workers their slices at recovery.
func (c *Coordinator) registerRows(name string, schema *relation.Schema, rows []relation.Tuple) (*ClusterDataset, error) {
	cd, err := c.register(name, schema, func() []relation.Tuple { return rows }, func(j Journal) (*ClusterDataset, error) {
		w := len(c.clients)
		size, rem := len(rows)/w, len(rows)%w
		cd := &ClusterDataset{
			c:       c,
			name:    name,
			schema:  schema,
			counts:  make([]int, w),
			cfds:    cfd.NewSet(schema),
			dcs:     dc.NewSet(schema),
			journal: j,
		}
		slices := make([][]relation.Tuple, w)
		tid := 0
		for i := range slices {
			cd.counts[i] = size
			if i < rem {
				cd.counts[i]++
			}
			slices[i] = rows[tid : tid+cd.counts[i]]
			tid += cd.counts[i]
		}
		if _, err := c.fanOut(func(w int, cl ShardClient) error {
			return cl.Register(name, schema, slices[w])
		}); err != nil {
			cd.release()
			return nil, err
		}
		return cd, nil
	})
	if err == nil {
		c.mirrorRegistry()
	}
	return cd, err
}

func (cd *ClusterDataset) setJournal(j Journal) {
	cd.wm.Lock()
	cd.journal = j
	cd.wm.Unlock()
}

// retire journals the drop under wm (see member.retire).
func (cd *ClusterDataset) retire() bool {
	cd.wm.Lock()
	defer cd.wm.Unlock()
	if cd.dropped || cd.journal != nil && cd.journal.LogDrop(cd.name) != nil {
		return false
	}
	cd.dropped = true
	return true
}

// release drops the dataset's slices from every worker.
func (cd *ClusterDataset) release() {
	_, _ = cd.c.fanOut(func(_ int, cl ShardClient) error { return cl.Drop(cd.name) })
	cd.c.mirrorRegistry()
}

// InstallConstraints compiles CFD text locally (the coordinator's merge
// needs the set) and installs the same text on every worker's slice.
func (cd *ClusterDataset) InstallConstraints(text string) (*cfd.Set, error) {
	set, err := cfd.ParseSet(text, cd.schema)
	if err != nil {
		return nil, err
	}
	if err := cd.install(text, ShardClient.InstallConstraints, Journal.LogConstraints, "constraints", func() {
		cd.cfds, cd.cfdText = set, text
		cd.vio.drop()
		cd.version++
	}); err != nil {
		return nil, err
	}
	return set, nil
}

// InstallDCs compiles DC text locally and installs it on every worker.
func (cd *ClusterDataset) InstallDCs(text string) (*dc.Set, error) {
	set, err := dc.ParseSet(text, cd.schema)
	if err != nil {
		return nil, err
	}
	// Reject unpartitionable DCs at install time, not mid-detect.
	if w := len(cd.c.clients); w > 1 {
		for _, d := range set.All() {
			if d.TwoTuple() && len(d.EqualityAttrs()) == 0 {
				return nil, fmt.Errorf("engine: DC %s has no cross-side equality predicate; it cannot be detected across %d workers", d.Name(), w)
			}
		}
	}
	if err := cd.install(text, ShardClient.InstallDCs, Journal.LogDCs, "DCs", func() {
		cd.dcs, cd.dcText = set, text
	}); err != nil {
		return nil, err
	}
	return set, nil
}

// install sends constraint text to every worker, journals it and runs
// publish under mu, all under wm.
func (cd *ClusterDataset) install(text string, send func(ShardClient, string, string) error,
	log func(Journal, string, string) error, what string, publish func()) error {
	cd.wm.Lock()
	defer cd.wm.Unlock()
	if cd.dropped {
		return fmt.Errorf("engine: %w: %q", ErrUnknownDataset, cd.name)
	}
	if _, err := cd.c.fanOut(func(_ int, cl ShardClient) error { return send(cl, cd.name, text) }); err != nil {
		return err
	}
	if cd.journal != nil {
		if err := log(cd.journal, cd.name, text); err != nil {
			return notDurable(fmt.Sprintf("%s for %q", what, cd.name), err)
		}
	}
	cd.mu.Lock()
	publish()
	cd.mu.Unlock()
	cd.c.mirrorRegistry()
	return nil
}

// WorkerFailure identifies one worker whose shard results are missing
// from a degraded detection, with the failure's cause label
// ("timeout", "http_5xx" or "transport").
type WorkerFailure struct {
	URL   string `json:"url"`
	Cause string `json:"cause"`
	Err   string `json:"error,omitempty"`
}

// Detect fans detection of the installed constraints out to the
// workers and merges the shard results into the single-process-exact
// global violation list (cfd.MergeShards), caching it like
// Session.Detect does — replacing the cached list only when the fresh
// one differs. When no input moved — the same set, no mutation since
// the cached list was merged, and every worker handing back the very
// reply it was merged from (a 304: the shard did not change) — the
// answer is a copy of the cached list, with no boundary round and no
// merge. If a worker dies mid-detect the merge degrades gracefully: the
// result covers the surviving shards and carries Degraded plus the
// failed workers, instead of a blanket error — only all workers failing
// is an error.
func (cd *ClusterDataset) Detect() (*DetectResult, error) {
	c := cd.c
	cd.mu.RLock()
	set, offsets, ver := cd.cfds, cd.offsets(), cd.version
	cd.mu.RUnlock()
	results, calls, failed, err := c.scatter(cd.name, "", set, true)
	if err != nil {
		return nil, err
	}
	if len(failed) == 0 {
		cd.mu.RLock()
		m := &cd.merged
		var res *DetectResult
		// merged is stored only with vio and version moves whenever vio
		// is dropped, so a current merged means a valid vio.
		if cd.version == ver && m.version == ver && m.set == set && sameReplies(m.replies, results) {
			stats := cd.stats
			res = &DetectResult{Violations: slices.Clone(cd.vio.list), Residual: &stats, Workers: calls, Gen: cd.vio.gen}
		}
		cd.mu.RUnlock()
		if res != nil {
			return res, nil
		}
	}
	res, err := c.merge(cd.name, set, offsets, results, calls, failed, true)
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
			cd.stats = *res.Residual
		}
		res.Gen = cd.vio.gen
		cd.merged.version, cd.merged.set, cd.merged.replies = ver, set, results
	}
	cd.mu.Unlock()
	return res, nil
}

// scatter is phase 1 of the two-phase scatter-gather core: fan out
// shard detection of set (cfds = the set's text when it differs from
// the installed one, "" otherwise). It returns every worker's reply and
// call, and the workers that failed.
//
// allowPartial turns worker failures into a degraded partial result:
// a failed worker's shard results are replaced by empty ones (one
// zero-valued ShardResult per CFD, empty boundary groups), which the
// merge tolerates, and the worker lands in Failed. Strict callers
// (Discover's candidate verification — a partial verdict could verify
// a globally-violated candidate) pass false and get the first error.
func (c *Coordinator) scatter(name, cfds string, set *cfd.Set, allowPartial bool) ([][]cfd.ShardResult, []WorkerCall, map[int]error, error) {
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
					return nil, nil, nil, err
				}
			}
		}
		for w := range failed {
			// MergeShards requires one ShardResult per CFD per worker; a
			// zero-valued ShardResult contributes nothing to the merge.
			results[w] = make([]cfd.ShardResult, len(set.All()))
		}
	}
	return results, calls, failed, nil
}

// merge is phase 2: the merge of scatter's replies after one round of
// boundary-group summaries. A racing append can shift shard state
// between the two phases; the merge tolerates short or missing groups,
// and exactness is guaranteed for quiescent data (the property the
// tests pin).
func (c *Coordinator) merge(name string, set *cfd.Set, offsets []int, results [][]cfd.ShardResult, calls []WorkerCall, failed map[int]error, allowPartial bool) (*DetectResult, error) {
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
	res := &DetectResult{Violations: vios, Residual: &stats, Workers: calls}
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
func (cd *ClusterDataset) Violations() (*DetectResult, error) {
	cd.mu.RLock()
	vio, stats := cd.vio, cd.stats
	cd.mu.RUnlock()
	if vio.valid {
		return &DetectResult{Violations: vio.list, Residual: &stats, Gen: vio.gen}, nil
	}
	return cd.Detect()
}

// AppendRows routes new tuples (raw positional fields) to the tail
// worker — the owner of the growing end of the TID space — and
// invalidates the violation cache. The worker parses and repairs the
// delta locally (its 4xx relays); cross-shard effects of the repaired
// delta surface at the next distributed detect.
func (cd *ClusterDataset) AppendRows(tuples [][]string) (*AppendResult, error) {
	if err := checkArity(cd.schema, tuples); err != nil {
		return nil, err
	}
	c, name := cd.c, cd.name
	last := len(c.clients) - 1
	cd.wm.Lock()
	defer cd.wm.Unlock()
	if cd.dropped {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, name)
	}
	start := time.Now()
	n, err := c.clients[last].Append(name, tuples)
	c.recordWorker(c.clients[last].URL(), time.Since(start), err)
	if err != nil {
		return nil, err
	}
	var jerr error
	if cd.journal != nil {
		// Journal the RAW fields: the tail worker repairs the delta
		// locally, so replay re-feeds the same raw rows through the same
		// worker-side append path.
		jerr = cd.journal.LogAppendRaw(name, tuples)
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
		return nil, notDurable(fmt.Sprintf("append to %q", name), jerr)
	}
	return &AppendResult{Appended: n}, nil
}

// Discover fans discovery out to the workers, keeps the candidates
// every shard agrees on (intersection by canonical CFD string — a CFD
// holding globally holds on every slice, so the intersection is a
// superset of the global result modulo per-shard min-support skew),
// then verifies each candidate with a distributed detect: candidates
// with zero global violations hold. install replaces the installed set
// cluster-wide with the verified survivors. Finding nothing is nil.
func (cd *ClusterDataset) Discover(opts discovery.Options, install bool) ([]*cfd.CFD, error) {
	c, name := cd.c, cd.name
	found := make([][]string, len(c.clients))
	if _, err := c.fanOut(func(w int, cl ShardClient) error {
		fs, err := cl.Discover(name, opts.MinSupport, opts.MaxLHS)
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
	results, calls, failed, err := c.scatter(name, text, candSet, false)
	if err != nil {
		return nil, err
	}
	res, err := c.merge(name, candSet, offsets, results, calls, failed, false)
	if err != nil {
		return nil, err
	}
	violated := map[*cfd.CFD]bool{}
	for _, v := range res.Violations {
		violated[v.CFD] = true
	}
	var holds []*cfd.CFD
	keep := ""
	for _, cc := range candSet.All() {
		if !violated[cc] {
			holds = append(holds, cc)
			keep += cc.String() + "\n"
		}
	}
	if install && len(holds) > 0 {
		if _, err := cd.InstallConstraints(keep); err != nil {
			return nil, err
		}
	}
	return holds, nil
}

// DetectDCs fans DC detection out to the workers and merges each DC's
// shard results (dc.MergeShards), truncating each DC's (T,U)-sorted
// list at limit like Session.DetectDCs. The last answer is kept with
// its inputs (dcMerge) and given again — no boundary round, no pair
// replay — while the DC set, limit and offsets are the same and every
// worker hands back the very reply it was computed from.
func (cd *ClusterDataset) DetectDCs(limit int) (*DCResult, error) {
	c, name := cd.c, cd.name
	cd.mu.RLock()
	set, offsets, ver := cd.dcs, cd.offsets(), cd.version
	cd.mu.RUnlock()
	all := set.All()
	if len(all) == 0 {
		return &DCResult{Reports: []DCReport{}, Residual: []dc.MergeStats{}}, nil
	}
	shardRes := make([]map[string]dc.ShardResult, len(c.clients))
	if _, err := c.fanOut(func(w int, cl ShardClient) error {
		m, err := cl.ShardDCs(name)
		shardRes[w] = m
		return err
	}); err != nil {
		return nil, err
	}
	cd.mu.RLock()
	m := cd.dcMemo
	cd.mu.RUnlock()
	if m != nil && m.set == set && m.limit == limit && slices.Equal(m.offsets, offsets) && sameDCReplies(m.replies, shardRes) {
		return &DCResult{Reports: cloneReports(m.reports), Residual: slices.Clone(m.stats)}, nil
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
			return nil, err
		}
		reports = append(reports, DCReport{
			Name:       d.Name(),
			Constraint: d.String(),
			Violations: vios,
			Truncated:  limit > 0 && len(vios) == limit,
		})
		allStats = append(allStats, stats)
	}
	cd.mu.Lock()
	// Like vio: what an append overtook is answered but not kept.
	if cd.version == ver {
		cd.dcMemo = &dcMerge{set: set, limit: limit, offsets: offsets, replies: shardRes, reports: cloneReports(reports), stats: slices.Clone(allStats)}
	}
	cd.mu.Unlock()
	return &DCResult{Reports: reports, Residual: allStats}, nil
}

// cloneReports copies reports down to their violation lists, which the
// caller owns.
func cloneReports(reports []DCReport) []DCReport {
	out := slices.Clone(reports)
	for i := range out {
		out[i].Violations = slices.Clone(out[i].Violations)
	}
	return out
}
