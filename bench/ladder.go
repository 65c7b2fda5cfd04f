package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/server"
	"semandaq/internal/wal"
)

// The traced pass runs in this process, single-threaded, on a stack put
// together from the daemon's own public constructors. Two seams give
// real nested spans without touching the program: the http.Handler
// around server.New, and an engine.Journal decorator between the engine
// and wal.Manager. The layers below have no seam, so each is timed on a
// ladder of twins: the op a request just performed is applied again to
// a twin engine.Session (no HTTP, no journal), then to a twin relation
// and index cache through the cfd / repair / discovery / dc entry
// points the session calls, then to a twin cache through the lookups
// those entry points make. A layer's self time is its rung minus the
// next one down.

// ladder is the in-process stack and its twins for one workload.
type ladder struct {
	w   *workload
	tr  *tracer
	dir string // scratch: WAL and spill directories

	srv http.Handler
	eng *engine.Engine // behind srv
	mgr *wal.Manager   // durable workloads only

	twin *engine.Engine // rung 2: sessions, no journal

	// rung 3 and 4, for cust: the relation and the cache the layer
	// entry points run on, and one more pair for bare cache lookups.
	set    *cfd.Set
	lhs    [][]int // distinct left-hand sides of set
	relC   *relation.Relation
	cacheC *relation.IndexCache
	relD   *relation.Relation
	cacheD *relation.IndexCache

	empRel   *relation.Relation
	empCache *relation.IndexCache
	empDC    *dc.DC

	violations, pairs int // what the last cfd / dc detection on the twins found
}

// engineOptions mirrors the flags setUp gives the daemon.
func (l *ladder) engineOptions(spillName string) engine.Options {
	opts := engine.Options{}
	if l.w.budgetMB > 0 {
		opts.IndexBudgetBytes = int64(l.w.budgetMB) << 20
		opts.SpillDir = filepath.Join(l.dir, spillName)
	}
	return opts
}

// newCache makes a twin cache configured like a session's.
func (l *ladder) newCache(spillName string) (*relation.IndexCache, error) {
	c := relation.NewIndexCache()
	c.SetShards(0)
	if l.w.budgetMB > 0 {
		c.SetBudget(int64(l.w.budgetMB) << 20)
		store, err := relation.NewSpillStore(filepath.Join(l.dir, spillName))
		if err != nil {
			return nil, err
		}
		c.SetSpill(store)
	}
	return c, nil
}

// tracedJournal is the WAL seam: every journal call the engine makes
// on behalf of a request becomes a child span of that request.
type tracedJournal struct {
	*wal.Manager
	tr *tracer
}

func (j tracedJournal) LogAppend(name string, rows []relation.Tuple) error {
	before := j.Manager.LogSize()
	id := j.tr.begin("wal.append", -1)
	err := j.Manager.LogAppend(name, rows)
	j.tr.end(id)
	j.tr.count("wal.append_rows", float64(len(rows)))
	j.tr.count("wal.append_bytes", float64(j.Manager.LogSize()-before))
	return err
}

func (j tracedJournal) LogCells(name string, cells []wal.CellWrite, confirm bool) error {
	id := j.tr.begin("wal.cells", -1)
	defer j.tr.end(id)
	return j.Manager.LogCells(name, cells, confirm)
}

func (j tracedJournal) LogRegister(name string, schema *relation.Schema, rows []relation.Tuple) error {
	id := j.tr.begin("wal.register", -1)
	defer j.tr.end(id)
	return j.Manager.LogRegister(name, schema, rows)
}

func newLadder(w *workload, tr *tracer, dir string) (*ladder, error) {
	l := &ladder{w: w, tr: tr, dir: dir}
	l.eng = engine.New(l.engineOptions("spill-a"))
	l.srv = server.New(l.eng)
	if w.durable {
		var err error
		l.mgr, err = wal.OpenManager(filepath.Join(dir, "wal"), wal.SyncAlways)
		if err != nil {
			return nil, err
		}
		if _, _, err := l.mgr.Recover(l.eng); err != nil {
			return nil, err
		}
		l.eng.SetJournal(tracedJournal{l.mgr, tr})
	}
	l.twin = engine.New(l.engineOptions("spill-b"))
	return l, nil
}

func (l *ladder) close() {
	if l.mgr != nil {
		l.mgr.Close()
	}
	l.eng.Close()
	l.twin.Close()
}

// serve sends one request through the in-process handler as the top
// span of a new request, "server.<name>", and returns the reply.
func (l *ladder) serve(name, method, path string, body any) (*httptest.ResponseRecorder, error) {
	return serveTraced(l.tr, l.srv, name, method, path, body)
}

// serveTraced is the HTTP seam: one request through h with no network
// in between, as the top span of a new request.
func serveTraced(tr *tracer, h http.Handler, name, method, path string, body any) (*httptest.ResponseRecorder, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	id := tr.request("server." + name)
	h.ServeHTTP(rec, req)
	tr.end(id)
	if rec.Code >= 400 {
		return nil, fmt.Errorf("in-process %s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	return rec, nil
}

// rung times fn as a ladder rung of the current request.
func (l *ladder) rung(name string, fn func()) { l.tr.timed(name, 0, fn) }

// load registers d on the in-process server and on the twin engine,
// and makes the rung-3 and rung-4 twins when d is cust data.
func (l *ladder) load(d *dataset) error {
	for _, r := range uploadRequests(d) {
		if _, err := l.serve(r.name, "POST", r.path, r.body); err != nil {
			return err
		}
		var err error
		switch r.name {
		case "upload":
			l.rung("engine.register", func() { _, err = l.twin.Register(d.name, d.rel) })
		case "constraints":
			_, err = l.twin.InstallConstraints(d.name, d.cfds)
		case "dcs":
			_, err = l.twin.InstallDCs(d.name, d.dcs)
		}
		if err != nil {
			return err
		}
	}
	if d.cfds == "" { // emp
		dcs, err := dc.ParseSet(d.dcs, d.rel.Schema())
		if err != nil {
			return err
		}
		l.empRel, l.empCache, l.empDC = d.rel.Clone(), relation.NewIndexCache(), dcs.All()[0]
		return nil
	}
	var err error
	if l.set, err = cfd.ParseSet(d.cfds, d.rel.Schema()); err != nil {
		return err
	}
	l.lhs = distinctLHS(l.set)
	l.relC, l.relD = d.rel.Clone(), d.rel.Clone()
	if l.cacheC, err = l.newCache("spill-c"); err != nil {
		return err
	}
	l.cacheD, err = l.newCache("spill-d")
	return err
}

func distinctLHS(set *cfd.Set) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, c := range set.All() {
		if k := fmt.Sprint(c.LHS()); !seen[k] {
			seen[k] = true
			out = append(out, c.LHS())
		}
	}
	return out
}

// --- one method per op class: the request, then the same op down the
// ladder. Every rung is a span; metrics() reduces the spans. ---

func (l *ladder) read() error {
	rec, err := l.serve("read", "GET", "/v1/datasets/cust/violations", nil)
	if err != nil {
		return err
	}
	l.tr.count("server.read_bytes", float64(rec.Body.Len()))
	sess, _ := l.twin.Get("cust")
	l.rung("engine.read", func() { _, err = sess.Violations() })
	return err
}

func (l *ladder) detect(name string) error {
	if _, err := l.serve("detect", "POST", "/v1/detect", map[string]any{"dataset": name}); err != nil {
		return err
	}
	sess, _ := l.twin.Get(name)
	var err error
	l.rung("engine.detect", func() { _, err = sess.Detect() })
	if err != nil {
		return err
	}
	l.rung("cfd.detect", func() {
		var vs []cfd.Violation
		vs, err = cfd.NewDetectorWithCache(l.set, l.cacheC).DetectParallel(l.relC, 0)
		l.violations = len(vs)
	})
	l.rung("relation.get", func() {
		for _, x := range l.lhs {
			l.cacheD.Get(l.relD, x)
		}
	})
	return err
}

func (l *ladder) append(rows [][]string) error {
	if _, err := l.serve("append", "POST", "/v1/repair/incremental", map[string]any{"dataset": "cust", "tuples": rows}); err != nil {
		return err
	}
	l.tr.count("append.rows", float64(len(rows)))
	tuples := make([]relation.Tuple, len(rows))
	for i, fields := range rows {
		t := make(relation.Tuple, len(fields))
		for j, f := range fields {
			t[j] = relation.String(f)
		}
		tuples[i] = t
	}
	sess, _ := l.twin.Get("cust")
	var err error
	l.rung("engine.append", func() { _, err = sess.Append(tuples) })
	if err != nil {
		return err
	}
	// Rung 3: what Session.Append does to its relation and cache.
	var res *repair.Result
	l.rung("repair.inc", func() {
		delta := make([]int, len(tuples))
		for i, t := range tuples {
			delta[i] = l.relC.MustInsert(t.Clone())
		}
		res, err = repair.IncInPlace(l.relC, l.set, delta, repair.Options{}, l.cacheC)
	})
	if err != nil {
		return err
	}
	// Rung 4: the inserts and the lookups that absorb them (advance),
	// then the repair's cell writes and the lookups that re-home them
	// (patch).
	l.rung("relation.advance", func() {
		for _, t := range tuples {
			l.relD.MustInsert(t.Clone())
		}
		for _, x := range l.lhs {
			l.cacheD.GetDelta(l.relD, x)
		}
	})
	if len(res.Changes) > 0 {
		l.rung("relation.patch", func() {
			for _, ch := range res.Changes {
				l.relD.Set(ch.TID, ch.Attr, ch.To)
			}
			for _, x := range l.lhs {
				l.cacheD.GetDelta(l.relD, x)
			}
		})
		l.tr.count("append.changes", float64(len(res.Changes)))
	}
	return nil
}

func (l *ladder) edit(tid int, value string) error {
	if _, err := l.serve("edit", "POST", "/v1/edit", map[string]any{"dataset": "cust", "tid": tid, "attr": "NM", "value": value}); err != nil {
		return err
	}
	sess, _ := l.twin.Get("cust")
	attr, v := l.relC.Schema().MustIndex("NM"), relation.String(value)
	var err error
	l.rung("engine.edit", func() { err = sess.Edit(tid, attr, v) })
	l.relC.Set(tid, attr, v)
	l.relD.Set(tid, attr, v)
	return err
}

func (l *ladder) dcDetect() error {
	if _, err := l.serve("dc", "POST", "/v1/dc/detect", map[string]any{"dataset": "emp"}); err != nil {
		return err
	}
	sess, _ := l.twin.Get("emp")
	l.rung("engine.dc", func() { sess.DetectDCs(0) })
	l.rung("dc.detect", func() {
		l.pairs = len(dc.Detect(l.empRel, l.empDC, dc.Options{Cache: l.empCache}))
	})
	return nil
}

// discover walks the lattice on the server, the twin session and the
// twin cache. cold says whether this is the first walk over the data:
// it builds the lattice; later walks find it cached, or spilled under a
// budget, and only catch up with what was appended and edited since.
func (l *ladder) discover(name string, cold bool) error {
	if _, err := l.serve("discover", "POST", "/v1/discover", discoverBody(name)); err != nil {
		return err
	}
	opts := discovery.Options{MinSupport: 50, MaxLHS: 2}
	sess, _ := l.twin.Get(name)
	var err error
	l.rung("engine.discover", func() { _, err = sess.Discover(opts, false) })
	if err != nil {
		return err
	}
	// What Session.Discover fills in when the daemon runs with its
	// default -workers 0.
	opts.Cache, opts.Workers = l.cacheC, runtime.NumCPU()
	span := "discovery.warm"
	if cold {
		span = "discovery.cold"
	}
	before := l.cacheC.Stats()
	l.rung(span, func() { _, err = discovery.Discover(l.relC, opts) })
	if after := l.cacheC.Stats(); cold {
		l.tr.count("discovery.partitions", float64(after.Misses+after.Refines-before.Misses-before.Refines))
	}
	return err
}

// runService replays the first n ops of client 0's stream.
func (l *ladder) runService(seed int64, n int) error {
	str := newStream(l.w, seed, 0)
	walked := false
	for i := 0; i < n; i++ {
		var err error
		switch o := str.next(); o.class {
		case "read":
			err = l.read()
		case "detect":
			err = l.detect("cust")
		case "append":
			err = l.append(o.rows)
		case "edit":
			err = l.edit(o.tid, o.value)
		case "dc":
			err = l.dcDetect()
		case "discover":
			err = l.discover("cust", !walked)
			walked = true
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runJob takes one dataset through the batch job, each step followed
// by its ladder.
func (l *ladder) runJob(d *dataset) error {
	if err := l.load(d); err != nil {
		return err
	}
	// Both detections of a job are cold: the first meets new data, the
	// second the repaired relation, so every lookup on their bottom rung
	// is a sharded build.
	if err := l.detect(d.name); err != nil {
		return err
	}
	if err := l.discover(d.name, true); err != nil {
		return err
	}
	if err := l.discover(d.name, false); err != nil {
		return err
	}
	if err := l.pageIns(); err != nil {
		return err
	}

	if _, err := l.serve("repair", "POST", "/v1/repair", map[string]any{"dataset": d.name, "accept": true}); err != nil {
		return err
	}
	sess, _ := l.twin.Get(d.name)
	var err error
	l.rung("engine.repair", func() { _, err = sess.RepairAccept() })
	if err != nil {
		return err
	}
	var res *repair.Result
	l.rung("repair.batch", func() { res, err = repair.Batch(l.relC, l.set, repair.Options{}) })
	if err != nil {
		return err
	}
	l.relC, l.relD = res.Repaired, res.Repaired.Clone()
	l.tr.count("repair.changes", float64(len(res.Changes)))

	if err := l.detect(d.name); err != nil {
		return err
	}
	if _, err := l.serve("delete", "DELETE", "/v1/datasets/"+d.name, nil); err != nil {
		return err
	}
	l.twin.Drop(d.name)
	l.cacheC.Reset()
	l.cacheD.Reset()
	return nil
}

// pageIns times bringing a demoted partition back. It builds every
// three-attribute partition of discovery's lattice in a fresh budgeted
// cache, which demotes most of them to segment files on the way, then
// looks each up again: a lookup that came back from a file is recorded
// as "relation.pagein", the others as "relation.lookup". (The walk
// itself cannot be used: by its end every partition it demoted has been
// paged back in as a mapping, which costs the budget next to nothing.)
func (l *ladder) pageIns() error {
	cache, err := l.newCache("spill-p")
	if err != nil {
		return err
	}
	defer cache.Reset()
	var sets [][]int
	arity := l.relC.Schema().Arity()
	for a := 0; a < arity; a++ {
		for b := a + 1; b < arity; b++ {
			for c := b + 1; c < arity; c++ {
				sets = append(sets, []int{a, b, c})
				cache.Get(l.relC, sets[len(sets)-1])
			}
		}
	}
	for _, x := range sets {
		before := cache.Stats().Pageins
		id := l.tr.begin("relation.lookup", 0)
		cache.Get(l.relC, x)
		l.tr.end(id)
		if cache.Stats().Pageins > before {
			l.tr.spans[id-1].Name = "relation.pagein"
		}
	}
	return nil
}

// probeWAL measures recovery and checkpoint on the log the pass wrote:
// the two registrations plus every append and edit it replayed.
func (l *ladder) probeWAL() error {
	if l.mgr == nil {
		return nil
	}
	dir := l.mgr.Dir()
	if err := l.mgr.Close(); err != nil {
		return err
	}
	l.mgr = nil
	top := l.tr.request("wal.probe")
	defer l.tr.end(top)
	eng := engine.New(engine.Options{})
	defer eng.Close()
	var mgr *wal.Manager
	var err error
	l.tr.timed("wal.open", top, func() { mgr, err = wal.OpenManager(dir, wal.SyncAlways) })
	if err != nil {
		return err
	}
	defer mgr.Close()
	l.tr.timed("wal.recover", top, func() {
		var replayed int
		_, replayed, err = mgr.Recover(eng)
		l.tr.count("wal.replayed_records", float64(replayed))
	})
	if err != nil {
		return err
	}
	l.tr.timed("wal.checkpoint", top, func() { err = mgr.Checkpoint(eng) })
	if err != nil {
		return err
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	for _, p := range snaps {
		if fi, err := os.Stat(p); err == nil {
			l.tr.count("wal.checkpoint_bytes", float64(fi.Size()))
		}
	}
	return nil
}

// bytesPerRow is the resident size of the detection partitions per
// tuple of cust.
func (l *ladder) bytesPerRow() float64 {
	if l.relD == nil || l.relD.Len() == 0 {
		return 0
	}
	total := int64(0)
	for _, x := range l.lhs {
		total += l.cacheD.Get(l.relD, x).MemSize()
	}
	return float64(total) / float64(l.relD.Len())
}

// metrics reduces the pass's spans and counts to per-layer metrics.
// Ladder values are means per op over the replayed prefix: the rungs of
// one op are paired, so the mean of a rung minus the mean of the next
// is the mean self time, and the self times of a class add up to its
// server span. (Medians would not: an append costs 0.05 ms or 2 ms
// depending on whether a detection compacted the partitions since the
// last one, and the median of a difference is not the difference of
// medians.) It also checks that they do add up, for the classes the
// acceptance criteria name.
func (l *ladder) metrics() (m map[string]float64, failed []string) {
	t := l.tr.totals()
	c := l.tr.counts
	lookups := t.n["relation.get"] * float64(len(l.lhs)) // on the bottom rung of detect
	m = map[string]float64{
		"server.read_self_ms":     t.self("server.read", "engine.read"),
		"engine.read_ms":          t.mean("engine.read"),
		"server.read_resp_bytes":  per(c["server.read_bytes"], t.n["server.read"]),
		"server.detect_self_ms":   t.self("server.detect", "engine.detect"),
		"engine.detect_self_ms":   t.self("engine.detect", "cfd.detect"),
		"cfd.detect_ms":           t.mean("cfd.detect"),
		"relation.hit_us":         per(t.ms["relation.get"]*1000, lookups),
		"cfd.violations":          float64(l.violations),
		"server.append_self_ms":   t.self("server.append", "wal.append", "engine.append"),
		"engine.append_self_ms":   t.self("engine.append", "repair.inc"),
		"repair.inc_us_per_row":   per(t.ms["repair.inc"]*1000, c["append.rows"]),
		"engine.edit_ms":          t.mean("engine.edit"),
		"dc.detect_ms":            t.mean("dc.detect"),
		"dc.pairs":                float64(l.pairs),
		"discovery.warm_ms":       t.mean("discovery.warm"),
		"discovery.cold_ms":       t.mean("discovery.cold"),
		"discovery.partitions":    per(c["discovery.partitions"], t.n["discovery.cold"]),
		"repair.batch_s":          t.mean("repair.batch") / 1000,
		"repair.changes":          c["repair.changes"] + c["append.changes"],
		"server.upload_decode_ms": t.self("server.upload", "engine.register"),

		"relation.build_ms_per_mrow":  per(t.ms["relation.get"], lookups*float64(l.w.custN)/1e6),
		"relation.advance_us_per_row": per(t.ms["relation.advance"]*1000, c["append.rows"]),
		"relation.patch_us_per_cell":  per(t.ms["relation.patch"]*1000, c["append.changes"]),
		"relation.pagein_ms":          t.mean("relation.pagein"),
		"relation.bytes_per_row":      l.bytesPerRow(),

		"wal.append_us":           t.mean("wal.append") * 1000,
		"wal.share_of_append":     per(t.ms["wal.append"], t.ms["server.append"]),
		"wal.bytes_per_row":       per(c["wal.append_bytes"], c["wal.append_rows"]),
		"wal.checkpoint_ms":       t.mean("wal.checkpoint"),
		"wal.checkpoint_bytes":    c["wal.checkpoint_bytes"],
		"wal.recover_ms_per_krec": per(t.ms["wal.open"]+t.ms["wal.recover"], c["wal.replayed_records"]/1000),
	}
	ladders := map[string][]float64{ // server span -> the self times under it, per op
		"server.read":   {m["server.read_self_ms"], m["engine.read_ms"]},
		"server.detect": {m["server.detect_self_ms"], m["engine.detect_self_ms"], t.self("cfd.detect", "relation.get"), t.mean("relation.get")},
		"server.append": {m["server.append_self_ms"], t.mean("wal.append"), m["engine.append_self_ms"],
			t.self("repair.inc", "relation.advance", "relation.patch"), per(t.ms["relation.advance"]+t.ms["relation.patch"], t.n["server.append"])},
	}
	for _, top := range []string{"server.read", "server.detect", "server.append"} {
		if t.n[top] == 0 {
			continue
		}
		sum := 0.0
		for _, self := range ladders[top] {
			sum += self
		}
		if want := t.mean(top); sum < 0.9*want || sum > 1.1*want {
			failed = append(failed, fmt.Sprintf("ladder: self times under %s add up to %.3f ms per op, the span is %.3f ms", top, sum, want))
		}
	}
	// The same lookups are hits on a warm service and builds in the
	// batch job.
	if l.w.job {
		m["relation.hit_us"] = 0
	} else {
		m["relation.build_ms_per_mrow"] = 0
	}
	return m, failed
}

// per is a/b, or 0 when there is nothing to divide by.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
