package main

import (
	"path/filepath"
	"time"

	"semandaq/internal/relation"
)

// A traced run gives the per-layer numbers. It has two halves. The live
// half drives a real daemon over loopback, first with one client and
// then with the workload's own client count: client-side latency per
// class, the daemon's own route averages and its index-cache counters
// come from there. The in-process half replays a prefix of the same
// seeded stream through the ladder (ladder.go, cluster_ladder.go).
// One-client latency minus the in-process server span is what the
// transport cost; latency under the full client count minus one-client
// latency is what waiting behind the other client cost.

// ladderOps is how many ops of client 0's stream the in-process pass
// replays; a fixed count, so every count in the trace repeats exactly.
var ladderOps = map[string]int{
	"serve-mixed":    216, // two blocks of the mix
	"ingest-durable": 200,
	"cold-batch":     2,  // jobs
	"cluster-mixed":  30, // three blocks; a cluster detect is ~200 ms
}

// routeOf maps an op class to its pattern in GET /v1/stats.
var routeOf = map[string]string{
	"read":     "GET /v1/datasets/{name}/violations",
	"detect":   "POST /v1/detect",
	"append":   "POST /v1/repair/incremental",
	"dc":       "POST /v1/dc/detect",
	"discover": "POST /v1/discover",
}

type routeTotals struct {
	Requests float64 `json:"requests"`
	TotalMS  float64 `json:"total_ms"`
}

func (a *api) routeStats() (map[string]routeTotals, error) {
	var body struct {
		Endpoints map[string]routeTotals `json:"endpoints"`
	}
	return body.Endpoints, a.call("GET", "/v1/stats", nil, &body)
}

// cacheCounters sums the index-cache counters of cust over the daemons
// that hold its tuples: the daemon itself, or the cluster's workers.
func (st *stack) cacheCounters(w *workload) (relation.CacheStats, int64, error) {
	holders := []*daemon{st.front}
	if w.cluster {
		holders = st.procs[:len(st.procs)-1]
	}
	var sum relation.CacheStats
	var resident int64
	for _, d := range holders {
		info, err := newAPI(d.url).info("cust")
		if err != nil {
			return sum, 0, err
		}
		sum = addStats(sum, info.IndexCache)
		resident += info.Resident
	}
	return sum, resident, nil
}

func addStats(a, b relation.CacheStats) relation.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Refines += b.Refines
	a.Advances += b.Advances
	a.Patches += b.Patches
	a.Evictions += b.Evictions
	a.Spills += b.Spills
	a.Pageins += b.Pageins
	return a
}

// cacheMetrics reports what the index cache did between two readings.
func cacheMetrics(vals map[string]float64, before, after relation.CacheStats, resident int64, per float64) {
	d := func(a, b uint64) float64 { return float64(a-b) / per }
	vals["relation.misses"] = d(after.Misses, before.Misses)
	vals["relation.refines"] = d(after.Refines, before.Refines)
	vals["relation.advances"] = d(after.Advances, before.Advances)
	vals["relation.patches"] = d(after.Patches, before.Patches)
	vals["relation.evictions"] = d(after.Evictions, before.Evictions)
	vals["relation.spills"] = d(after.Spills, before.Spills)
	vals["relation.pageins"] = d(after.Pageins, before.Pageins)
	hits := d(after.Hits, before.Hits)
	if looked := hits + vals["relation.misses"] + vals["relation.refines"]; looked > 0 {
		vals["relation.hit_ratio"] = hits / looked
	}
	vals["relation.resident_mb"] = float64(resident) / (1 << 20)
}

// runTraced is one traced run: the live half, the in-process half, and
// the per-layer metrics the two give together.
func (h *harness) runTraced(w *workload, in *inputs, seed int64, window time.Duration) (*report, error) {
	vals := map[string]float64{}
	rep := &report{}
	alone, loaded, checks, err := h.liveHalf(w, in, seed, window, vals, rep)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	layers, failed, err := h.ladderHalf(w, in, seed, tr)
	if err != nil {
		return nil, err
	}
	checks = append(checks, failed...)
	for name, v := range layers {
		vals[name] = v
	}
	for _, class := range []string{"read", "detect", "append"} {
		one := pctIf(alone.byClass[class], 50)
		if inproc := tr.medianOf("server." + class); one > 0 && inproc > 0 {
			vals["server.transport_ms."+class] = rungSelf(one, inproc)
		}
		if many := pctIf(loaded.byClass[class], 50); one > 0 && w.clients > 1 {
			vals["engine.queue_ms."+class] = rungSelf(many, one)
		}
	}

	rep.Correct = len(checks) == 0
	rep.Metrics = map[string]measuredV{}
	for _, c := range checks {
		logf("  CHECK FAILED: %s", c)
	}
	for _, m := range perLayer {
		rep.Metrics[m.Name] = measuredV{vals[m.Name], m.Unit}
		if vals[m.Name] != 0 {
			logf("  %-30s %14.4f %s", m.Name, vals[m.Name], m.Unit)
		}
	}
	path := filepath.Join(h.out, "trace-"+w.name+".json")
	logf("  %d spans -> %s", len(tr.spans), path)
	return rep, writeTrace(path, traceFile{w.name, seed, environment(h.root), vals, tr.counts, tr.spans})
}

// liveHalf drives a real daemon over loopback, with one client and then
// with the workload's own client count, and fills in what only a live
// daemon can tell: client-side latency per class, the daemon's route
// averages and cache counters, and recovery time. It returns the two
// passes' tallies and the output checks that failed.
func (h *harness) liveHalf(w *workload, in *inputs, seed int64, window time.Duration, vals map[string]float64, rep *report) (alone, loaded *tally, checks []string, err error) {
	st, err := h.setUp(w, in)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() { st.kill() }()
	front := newAPI(st.front.url)
	var before, jobStats relation.CacheStats
	var jobResident int64
	if w.job {
		// A job's dataset is gone once the job ends, so its counters are
		// read just before the delete, outside the timed requests.
		st.inspect = func(a *api, name string) {
			if info, err := a.info(name); err == nil {
				jobStats = addStats(jobStats, info.IndexCache)
				jobResident = max(jobResident, info.Resident)
			}
		}
	}
	// One client first, then the workload's own count. Route averages
	// and cache counters are deltas over the last pass. Stream numbers
	// 2.. keep the one-client pass from appending the rows the full pass
	// is about to.
	share, passes := window*3/10, []int{1, w.clients}
	if w.clients == 1 {
		share, passes = 2*share, passes[:1]
	}
	var routesBefore map[string]routeTotals
	var jobs []float64 // the batch job's times, ms
	acked := 0
	for i, clients := range passes {
		if i == len(passes)-1 {
			if routesBefore, err = front.routeStats(); err != nil {
				return nil, nil, nil, err
			}
			if !w.job {
				if before, _, err = st.cacheCounters(w); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		samples, _, n, err := h.drive(w, in, st, seed, share, clients, 2*(1-i))
		if err != nil {
			return nil, nil, nil, err
		}
		acked += n
		jobs = jobTimes(samples)
		loaded = tallyOf(samples)
		if i == 0 {
			alone = loaded
		}
		rep.Attempted += loaded.attempted
		rep.Failed += loaded.failed
	}
	routesAfter, err := front.routeStats()
	if err != nil {
		return nil, nil, nil, err
	}
	for class, route := range routeOf {
		if n := routesAfter[route].Requests - routesBefore[route].Requests; n > 0 {
			vals["server.route_avg_ms."+class] = (routesAfter[route].TotalMS - routesBefore[route].TotalMS) / n
		}
	}
	for _, class := range []string{"read", "detect", "append", "discover", "dc"} {
		vals[class+"_p50_ms"] = pctIf(loaded.byClass[class], 50)
	}
	vals["read_p95_ms"] = pctIf(loaded.byClass["read"], 95)
	vals["append_p95_ms"] = pctIf(loaded.byClass["append"], 95)
	if w.job {
		vals["clean_s"] = median(jobs) / 1000
		cacheMetrics(vals, relation.CacheStats{}, jobStats, jobResident, float64(max(1, len(jobs))))
	} else {
		after, resident, err := st.cacheCounters(w)
		if err != nil {
			return nil, nil, nil, err
		}
		cacheMetrics(vals, before, after, resident, 1)
		checks = checkAfterLoad(front, w.custN+acked)
	}
	if w.durable {
		rec, failed, err := h.crashAndRecover(st, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		vals["recovery_ms"] = ms(rec)
		checks = append(checks, failed...)
	}
	return alone, loaded, checks, nil
}

// ladderHalf replays a prefix of the seeded stream in this process and
// returns the per-layer metrics the ladder gives and the ladder checks
// that failed.
func (h *harness) ladderHalf(w *workload, in *inputs, seed int64, tr *tracer) (map[string]float64, []string, error) {
	if w.cluster {
		l, err := newClusterLadder(w, tr)
		if err != nil {
			return nil, nil, err
		}
		defer l.close()
		for _, d := range []*dataset{in.cust, in.emp} {
			if err := l.load(d); err != nil {
				return nil, nil, err
			}
		}
		if err := l.run(seed, ladderOps[w.name]); err != nil {
			return nil, nil, err
		}
		if err := l.probeMerge(); err != nil {
			return nil, nil, err
		}
		if err := l.discoverOnce(); err != nil {
			return nil, nil, err
		}
		return l.metrics(), nil, nil
	}
	dir, err := h.mkdir("ladder")
	if err != nil {
		return nil, nil, err
	}
	l, err := newLadder(w, tr, dir)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	if w.job {
		for k := 0; k < ladderOps[w.name]; k++ {
			if err := l.runJob(in.jobs[k%len(in.jobs)]); err != nil {
				return nil, nil, err
			}
		}
	} else {
		for _, d := range []*dataset{in.cust, in.emp} {
			if err := l.load(d); err != nil {
				return nil, nil, err
			}
		}
		// Warm the stack the way the live daemon is warm when its window
		// opens: set-up's first detection has built the partitions. Its
		// spans are dropped.
		mark := len(tr.spans)
		if err := l.detect("cust"); err != nil {
			return nil, nil, err
		}
		tr.spans = tr.spans[:mark]
		if err := l.runService(seed, ladderOps[w.name]); err != nil {
			return nil, nil, err
		}
	}
	if err := l.probeWAL(); err != nil {
		return nil, nil, err
	}
	m, failed := l.metrics()
	return m, failed, nil
}
