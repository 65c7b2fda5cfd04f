package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/engine"
	"semandaq/internal/server"
)

// The cluster's traced pass: two in-process workers behind real
// loopback HTTP servers (so the shard wire format is the real one), the
// daemon's own HTTP shard clients, and a coordinator built over them.
// The seams are an engine.ShardClient decorator, which makes every
// shard call a child span of the coordinator request that caused it,
// and a counting handler in front of each worker.

// tracedShard is the shard-RPC seam.
type tracedShard struct {
	engine.ShardClient
	tr *tracer
}

func (s tracedShard) ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error) {
	id := s.tr.begin("shard.detect", -1)
	defer s.tr.end(id)
	return s.ShardClient.ShardDetect(dataset, cfds, set)
}

func (s tracedShard) ShardGroups(dataset string, part, vals []int, keys []string) ([]cfd.BoundaryGroup, error) {
	id := s.tr.begin("shard.groups", -1)
	defer s.tr.end(id)
	return s.ShardClient.ShardGroups(dataset, part, vals, keys)
}

func (s tracedShard) ShardDCs(dataset string) (map[string]dc.ShardResult, error) {
	id := s.tr.begin("shard.dcs", -1)
	defer s.tr.end(id)
	return s.ShardClient.ShardDCs(dataset)
}

func (s tracedShard) Append(dataset string, tuples [][]string) (int, error) {
	id := s.tr.begin("shard.append", -1)
	defer s.tr.end(id)
	return s.ShardClient.Append(dataset, tuples)
}

func (s tracedShard) Discover(dataset string, minSupport, maxLHS int) ([]string, error) {
	id := s.tr.begin("shard.discover", -1)
	defer s.tr.end(id)
	return s.ShardClient.Discover(dataset, minSupport, maxLHS)
}

// Retries forwards the optional engine.RetryReporter of the wrapped
// client, which embedding an interface value would hide.
func (s tracedShard) Retries() uint64 {
	if rr, ok := s.ShardClient.(engine.RetryReporter); ok {
		return rr.Retries()
	}
	return 0
}

// countingHandler adds up the response bytes a worker writes per path.
type countingHandler struct {
	next  http.Handler
	mu    sync.Mutex
	bytes map[string]int64
	calls map[string]int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.mu.Lock()
	h.bytes[r.URL.Path] += cw.n
	h.calls[r.URL.Path]++
	h.mu.Unlock()
}

// clusterLadder is the in-process cluster.
type clusterLadder struct {
	w       *workload
	tr      *tracer
	workers []*httptest.Server
	counts  []*countingHandler
	raw     []engine.ShardClient // undecorated, for the merge probe
	coord   *engine.Coordinator
	srv     http.Handler

	// what probeMerge found
	mergeMS, boundaryFraction float64
	violations                int
}

func newClusterLadder(w *workload, tr *tracer) (*clusterLadder, error) {
	l := &clusterLadder{w: w, tr: tr}
	var clients []engine.ShardClient
	for i := 0; i < 2; i++ {
		ch := &countingHandler{next: server.New(engine.New(engine.Options{})), bytes: map[string]int64{}, calls: map[string]int64{}}
		ts := httptest.NewServer(ch)
		l.workers, l.counts = append(l.workers, ts), append(l.counts, ch)
		cl := server.NewShardClient(ts.URL, 5*time.Minute)
		cl.SetRetryPolicy(server.DefaultRetryPolicy())
		l.raw = append(l.raw, cl)
		clients = append(clients, tracedShard{cl, tr})
	}
	var err error
	if l.coord, err = engine.NewCoordinator(clients); err != nil {
		l.close()
		return nil, err
	}
	l.srv = server.NewCoordinator(l.coord)
	return l, nil
}

func (l *clusterLadder) close() {
	for _, ts := range l.workers {
		ts.Close()
	}
}

// serve sends one request through the coordinator handler as the top
// span of a new request, "server.<name>".
func (l *clusterLadder) serve(name, method, path string, body any) (*httptest.ResponseRecorder, error) {
	return serveTraced(l.tr, l.srv, name, method, path, body)
}

func (l *clusterLadder) load(d *dataset) error {
	for _, r := range uploadRequests(d) {
		if _, err := l.serve(r.name, "POST", r.path, r.body); err != nil {
			return err
		}
	}
	return nil
}

// run replays the first n ops of client 0's stream through the
// coordinator.
func (l *clusterLadder) run(seed int64, n int) error {
	str := newStream(l.w, seed, 0)
	for i := 0; i < n; i++ {
		var err error
		switch o := str.next(); o.class {
		case "read":
			_, err = l.serve("read", "GET", "/v1/datasets/cust/violations", nil)
		case "detect":
			_, err = l.serve("detect", "POST", "/v1/detect", map[string]any{"dataset": "cust"})
		case "append":
			_, err = l.serve("append", "POST", "/v1/repair/incremental", map[string]any{"dataset": "cust", "tuples": o.rows})
		case "dc":
			_, err = l.serve("dc", "POST", "/v1/dc/detect", map[string]any{"dataset": "emp"})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// probeMerge scatters one detection by hand and times cfd.MergeShards
// on the shard results, leaving out the time its boundary fetches spend
// on the wire.
func (l *clusterLadder) probeMerge() error {
	cd, ok := l.coord.Get("cust")
	if !ok {
		return fmt.Errorf("cluster pass has no cust dataset")
	}
	set, counts := cd.Constraints(), cd.Counts()
	offsets := make([]int, len(counts))
	for w := 1; w < len(counts); w++ {
		offsets[w] = offsets[w-1] + counts[w-1]
	}
	results := make([][]cfd.ShardResult, len(l.raw))
	for w, cl := range l.raw {
		var err error
		if results[w], err = cl.ShardDetect("cust", "", set); err != nil {
			return err
		}
	}
	var onWire time.Duration
	fetch := func(ci int, keys []string) ([][]cfd.BoundaryGroup, error) {
		start := time.Now()
		defer func() { onWire += time.Since(start) }()
		c := set.All()[ci]
		members := make([][]cfd.BoundaryGroup, len(l.raw))
		for w, cl := range l.raw {
			groups, err := cl.ShardGroups("cust", c.LHS(), c.LHSRHSAttrs(), keys)
			if err != nil {
				return nil, err
			}
			for i := range groups {
				for m := range groups[i].TIDs {
					groups[i].TIDs[m] += offsets[w]
				}
			}
			members[w] = groups
		}
		return members, nil
	}
	var vios []cfd.Violation
	var stats cfd.MergeStats
	var err error
	top := l.tr.request("cfd.merge_probe")
	total := l.tr.timed("cfd.merge", top, func() { vios, stats, err = cfd.MergeShards(set, offsets, results, fetch) })
	l.tr.end(top)
	l.mergeMS, l.boundaryFraction, l.violations = ms(total-onWire), stats.BoundaryFraction(), len(vios)
	return err
}

// discoverOnce times one distributed discovery. At ~6 s a call it is
// too slow to be part of the cluster's traffic mix.
func (l *clusterLadder) discoverOnce() error {
	_, err := l.serve("discover", "POST", "/v1/discover", discoverBody("cust"))
	return err
}

// metrics reduces the seams' spans, the counting handlers and the
// probes to per-layer metrics.
func (l *clusterLadder) metrics() map[string]float64 {
	m := map[string]float64{
		"cfd.merge_ms":              l.mergeMS,
		"cfd.boundary_fraction":     l.boundaryFraction,
		"cfd.violations":            float64(l.violations),
		"engine.cluster_discover_s": l.tr.medianOf("server.discover") / 1000,
	}
	for _, method := range []string{"detect", "groups", "dcs", "append"} {
		m["server.shard_rpc_ms."+method] = l.tr.medianOf("shard." + method)
	}
	var bytes, calls int64
	for _, ch := range l.counts {
		bytes += ch.bytes["/v1/shard/detect"]
		calls += ch.calls["/v1/shard/detect"]
	}
	m["server.shard_resp_bytes"] = per(float64(bytes), float64(calls))
	for _, t := range l.coord.WorkerStats() {
		m["engine.worker_retries"] += float64(t.Retries)
	}
	var self, straggle []float64
	for _, top := range l.tr.spans {
		if top.Name != "server.detect" {
			continue
		}
		kids := l.tr.children(top.ID)
		// What the coordinator itself did for a detection: the request
		// minus the time some shard call was in flight.
		self = append(self, ms(selfTime(top, kids)))
		slow, sum, n := 0.0, 0.0, 0.0
		for _, k := range kids {
			if k.Name == "shard.detect" {
				slow, sum, n = max(slow, ms(k.dur())), sum+ms(k.dur()), n+1
			}
		}
		if sum > 0 {
			straggle = append(straggle, slow/(sum/n))
		}
	}
	m["engine.coord_self_ms"] = median(self)
	m["engine.straggler_ratio"] = median(straggle)
	return m
}
