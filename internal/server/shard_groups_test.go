package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

// The boundary round of a cluster detect (POST /v1/shard/groups): its
// shape on the wire, its failure between the two rounds, the cache
// guard a detect overtaken by an append needs, and its two decoders.

// fiveCFDs is the benchmark's rule set: the planted cust rules plus
// phi5.
func fiveCFDs() string {
	return datagen.CustConstraints().String() + "\ncfd phi5: cust([CT, ZIP] -> [STR])\n"
}

// shardTap records, per path, a worker's calls, response statuses and
// response bodies.
type shardTap struct {
	next   http.Handler
	mu     sync.Mutex
	calls  map[string]int
	codes  map[string][]int
	bodies map[string][][]byte
}

type tapWriter struct {
	http.ResponseWriter
	code int
	buf  bytes.Buffer
}

func (w *tapWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (h *shardTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &tapWriter{ResponseWriter: w, code: http.StatusOK}
	h.next.ServeHTTP(tw, r)
	h.mu.Lock()
	h.calls[r.URL.Path]++
	h.codes[r.URL.Path] = append(h.codes[r.URL.Path], tw.code)
	h.bodies[r.URL.Path] = append(h.bodies[r.URL.Path], tw.buf.Bytes())
	h.mu.Unlock()
}

func (h *shardTap) reset() {
	h.mu.Lock()
	h.calls, h.codes, h.bodies = map[string]int{}, map[string][]int{}, map[string][][]byte{}
	h.mu.Unlock()
}

// TestClusterDetectOneBoundaryRound pins the shape of a cluster detect,
// not its time: whatever the number of CFDs, a worker sees one
// /v1/shard/detect and at most one /v1/shard/groups, and the boundary
// reply carries TIDs plus O(1) per key — no member rows.
func TestClusterDetectOneBoundaryRound(t *testing.T) {
	taps := make([]*shardTap, 2)
	cs, _ := startFaultyCluster(t, 2, RetryPolicy{MaxAttempts: 1}, func(i int, h http.Handler) http.Handler {
		taps[i] = &shardTap{next: h}
		taps[i].reset()
		return taps[i]
	})
	registerCust(t, cs, "cust", 2000)
	if code, body := call(t, cs, "POST", "/v1/constraints", map[string]any{"dataset": "cust", "cfds": fiveCFDs()}); code != http.StatusOK {
		t.Fatalf("constraints: %d %v", code, body)
	}
	for _, tap := range taps {
		tap.reset()
	}
	code, got := call(t, cs, "POST", "/v1/detect", map[string]any{"dataset": "cust"})
	if code != http.StatusOK {
		t.Fatalf("detect: %d %v", code, got)
	}
	res := got["residual"].(map[string]any)
	if res["boundary_groups"].(float64) == 0 || res["boundary_tuples"].(float64) < 2000 {
		t.Fatalf("residual %v: the five CFDs should put the relation's hot groups on both workers", res)
	}
	for w, tap := range taps {
		if n := tap.calls["/v1/shard/detect"]; n != 1 {
			t.Fatalf("worker %d: %d shard detects for one detect", w, n)
		}
		if n := tap.calls["/v1/shard/groups"]; n != 1 {
			t.Fatalf("worker %d: %d boundary requests for 5 CFDs, want one", w, n)
		}
		body := tap.bodies["/v1/shard/groups"][0]
		var reply struct {
			Queries [][]shardSideJSON `json:"queries"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("worker %d: boundary reply: %v", w, err)
		}
		if len(reply.Queries) != 5 {
			t.Fatalf("worker %d answered %d queries, want one per CFD", w, len(reply.Queries))
		}
		tids, keys := 0, 0
		for _, sides := range reply.Queries {
			for _, s := range sides {
				keys++
				tids += len(s.TIDs)
				if len(s.TIDs) > 0 && len(s.Rows) != 1 {
					t.Fatalf("worker %d shipped %d rows for a group of %d", w, len(s.Rows), len(s.TIDs))
				}
			}
		}
		// A TID costs its digits and a comma; a key its first member's
		// values (a street, a city, a zip...) and the JSON around them.
		if limit := 8*tids + 256*keys + 64; keys == 0 || len(body) > limit {
			t.Fatalf("worker %d: boundary reply is %d bytes for %d TIDs in %d keys (limit %d)", w, len(body), tids, keys, limit)
		}
	}
}

// TestClusterDegradedBoundaryRound: a worker that answers the scatter
// and dies before the boundary round degrades the detect like one that
// never answered — flagged, named, never a blanket error or a silent
// global answer — and Discover's strict verification still fails.
func TestClusterDegradedBoundaryRound(t *testing.T) {
	healthy, _ := startFaultyCluster(t, 2, RetryPolicy{MaxAttempts: 1}, nil)
	registerCust(t, healthy, "cust", 300)
	_, full := call(t, healthy, "POST", "/v1/detect", map[string]any{"dataset": "cust"})

	var inj *FaultInjector
	cs, raw := startFaultyCluster(t, 2, RetryPolicy{MaxAttempts: 1}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		inj = InjectFaults(h, FaultOptions{Seed: 1, Rate: 1, Modes: []FaultMode{FaultReset},
			Match: func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/shard/groups") }})
		return inj
	})
	registerCust(t, cs, "cust", 300)
	code, got := call(t, cs, "POST", "/v1/detect", map[string]any{"dataset": "cust"})
	if code != http.StatusOK || got["degraded"] != true {
		t.Fatalf("detect with a worker lost before the boundary round: %d %v", code, got)
	}
	if inj.Injected() != 1 {
		t.Fatalf("%d faults injected, want the one boundary request", inj.Injected())
	}
	failed := got["failed_workers"].([]any)
	if fw := failed[0].(map[string]any); len(failed) != 1 || fw["url"] != raw[1].URL() || fw["cause"] != "transport" {
		t.Fatalf("failed_workers = %v", failed)
	}
	if reflect.DeepEqual(got["violations"], full["violations"]) {
		t.Fatal("the degraded answer equals the full one: worker 1's boundary members were not needed, the test proves nothing")
	}
	// Not cached: a read re-detects (and degrades again) instead of
	// serving the partial list as the dataset's.
	if code, vio := call(t, cs, "GET", "/v1/datasets/cust/violations", nil); code != http.StatusOK || vio["degraded"] != true {
		t.Fatalf("read after a degraded detect: %d %v", code, vio)
	}
	code, body := call(t, cs, "POST", "/v1/discover", map[string]any{"dataset": "cust", "min_support": 20, "max_lhs": 2})
	if code != http.StatusBadGateway {
		t.Fatalf("discover verified candidates against a partial merge: %d %v", code, body)
	}
}

// heldShard holds every ShardDetect answer back, once computed, until
// release is closed.
type heldShard struct {
	engine.ShardClient
	computed chan<- struct{}
	release  <-chan struct{}
}

func (h heldShard) ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error) {
	res, err := h.ShardClient.ShardDetect(dataset, cfds, set)
	h.computed <- struct{}{}
	<-h.release
	return res, err
}

// TestClusterDetectOvertakenByAppend: a detect whose scatter ran before
// an append must not leave its list in the cache. The appended row
// conflicts only across shards — its K lives on worker 0, the row goes
// to the tail worker, whose incremental repair cannot see it — so the
// overtaken detect's list is empty and the current one is not.
func TestClusterDetectOvertakenByAppend(t *testing.T) {
	computed, release := make(chan struct{}, 2), make(chan struct{})
	clients := make([]engine.ShardClient, 2)
	for i := range clients {
		eng := engine.New(engine.Options{})
		ws := httptest.NewServer(New(eng))
		t.Cleanup(ws.Close)
		t.Cleanup(eng.Close)
		clients[i] = heldShard{NewShardClient(ws.URL, 10*time.Second), computed, release}
	}
	coord, err := engine.NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	schema := relation.MustSchema("kv",
		relation.Attribute{Name: "K", Kind: relation.KindString},
		relation.Attribute{Name: "V", Kind: relation.KindString})
	data := relation.New(schema)
	for _, kv := range [][2]string{{"a", "x"}, {"b", "y"}, {"c", "z"}, {"d", "w"}} {
		data.MustInsert(relation.Tuple{relation.String(kv[0]), relation.String(kv[1])})
	}
	if _, err := coord.Register("kv", data); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.InstallConstraints("kv", "kv([K] -> [V])"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		res, err := coord.Detect("kv")
		if err == nil && len(res.Violations) != 0 {
			t.Errorf("the overtaken detect saw %v", res.Violations)
		}
		done <- err
	}()
	<-computed
	<-computed // both shards answered from the four-row state
	if n, err := coord.Append("kv", [][]string{{"a", "q"}}); err != nil || n != 1 {
		t.Fatalf("append: %d %v", n, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res, err := coord.Violations("kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || !reflect.DeepEqual(res.Violations[0].TIDs, []int{0, 4}) {
		t.Fatalf("violations after the append: %v, want tuples 0 and 4", res.Violations)
	}
}

// groupsFixture is a worker holding 60 cust rows with the five CFDs,
// and a real boundary request against it with the worker's real reply.
func groupsFixture(tb testing.TB) (h http.Handler, queries []cfd.GroupQuery, request, reply []byte) {
	eng := engine.New(engine.Options{})
	tb.Cleanup(eng.Close)
	sess, err := eng.Register("cust", datagen.Cust(60, 1))
	if err != nil {
		tb.Fatal(err)
	}
	set, err := eng.InstallConstraints("cust", fiveCFDs())
	if err != nil {
		tb.Fatal(err)
	}
	results, err := sess.ShardDetect(nil)
	if err != nil {
		tb.Fatal(err)
	}
	for ci, c := range set.All() {
		q := cfd.GroupQuery{PartAttrs: c.LHS(), ValAttrs: c.LHSRHSAttrs(), Rows: ci == 0}
		for _, g := range results[ci].Groups[:min(4, len(results[ci].Groups))] {
			q.Keys = append(q.Keys, []byte(g.Key))
		}
		queries = append(queries, q)
	}
	if request, err = json.Marshal(shardGroupsRequest{Dataset: "cust", Queries: queries}); err != nil {
		tb.Fatal(err)
	}
	h = New(eng)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/shard/groups", bytes.NewReader(request)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("fixture request: %d %s", rec.Code, rec.Body)
	}
	return h, queries, request, rec.Body.Bytes()
}

// decodeReply is the client's path from reply bytes to groups.
func decodeReply(queries []cfd.GroupQuery, reply []byte) ([][]cfd.BoundaryGroup, error) {
	var resp struct {
		Queries [][]shardSideJSON `json:"queries"`
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, err
	}
	return decodeShardSides(queries, resp.Queries)
}

// TestShardGroupsDecodeRejects: replies that do not answer the queries
// — in count, in rows per group, in bytes per row — are errors.
func TestShardGroupsDecodeRejects(t *testing.T) {
	_, queries, _, reply := groupsFixture(t)
	sides, err := decodeReply(queries, reply)
	if err != nil {
		t.Fatalf("the worker's own reply: %v", err)
	}
	if g := sides[0][0]; len(g.TIDs) == 0 || len(g.Rows) != len(g.TIDs) {
		t.Fatalf("rows query came back with %d rows for %d TIDs", len(g.Rows), len(g.TIDs))
	}
	if g := sides[1][0]; len(g.TIDs) == 0 || len(g.Rows) != 1 {
		t.Fatalf("summary query came back with %d rows for %d TIDs", len(g.Rows), len(g.TIDs))
	}
	mangle := func(f func(q [][]shardSideJSON) [][]shardSideJSON) []byte {
		var resp struct {
			Queries [][]shardSideJSON `json:"queries"`
		}
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Queries = f(resp.Queries)
		out, _ := json.Marshal(resp)
		return out
	}
	for name, bad := range map[string][]byte{
		"a query short": mangle(func(q [][]shardSideJSON) [][]shardSideJSON { return q[1:] }),
		"a key short":   mangle(func(q [][]shardSideJSON) [][]shardSideJSON { q[1] = q[1][1:]; return q }),
		"no first row":  mangle(func(q [][]shardSideJSON) [][]shardSideJSON { q[1][0].Rows = nil; return q }),
		"rows short": mangle(func(q [][]shardSideJSON) [][]shardSideJSON {
			q[0][0].Rows = q[0][0].Rows[:1]
			q[0][0].TIDs = []int{1, 2}
			return q
		}),
		"row truncated": mangle(func(q [][]shardSideJSON) [][]shardSideJSON {
			r := q[1][0].Rows[0]
			q[1][0].Rows[0] = r[:len(r)-1]
			return q
		}),
		"row trailing byte": mangle(func(q [][]shardSideJSON) [][]shardSideJSON { q[1][0].Rows[0] = append(q[1][0].Rows[0], 0); return q }),
		"oversized length": mangle(func(q [][]shardSideJSON) [][]shardSideJSON {
			q[1][0].Rows[0] = []byte("\x019223372036854775807:x")
			return q
		}),
		"not JSON": reply[:len(reply)/2],
	} {
		if _, err := decodeReply(queries, bad); err == nil {
			t.Errorf("decoded a reply with %s", name)
		}
	}
}

// FuzzShardGroupsDecode feeds untrusted bytes to both decoders of the
// boundary round: the worker's, of the request and its key list, and
// the client's, of the reply. Neither may panic; the worker answers
// 200 or a 4xx, and whatever the client accepts has the shape its
// queries asked for.
func FuzzShardGroupsDecode(f *testing.F) {
	h, queries, request, reply := groupsFixture(f)
	f.Add(request, reply)
	f.Add(request[:len(request)/2], reply[:len(reply)/2])
	f.Add([]byte(`{"dataset":"cust","queries":[{"part_attrs":[0],"val_attrs":[9],"keys":["AQ=="]}]}`),
		[]byte(`{"queries":[[{"tids":[1,2],"rows":["ATk5OTk5OTk5OTk5OTk5OTk5OTk6eA=="]}]]}`))
	f.Add([]byte(`{"dataset":"cust","queries":[{"part_attrs":[0,0,0],"val_attrs":[],"keys":["ATk5OTk5OTk5OTk5OTk5OTk5OTk6eA==",""]}]}`),
		[]byte(`{"queries":[[{"tids":[0],"rows":[],"differs":[-1]}],[],[],[],[]]}`))
	f.Fuzz(func(t *testing.T, request, reply []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/shard/groups", bytes.NewReader(request)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("worker answered %d to %q", rec.Code, request)
		}
		sides, err := decodeReply(queries, reply)
		if err != nil {
			return
		}
		for qi, q := range queries {
			if len(sides[qi]) != len(q.Keys) {
				t.Fatalf("query %d: %d groups for %d keys", qi, len(sides[qi]), len(q.Keys))
			}
			for _, g := range sides[qi] {
				if want := len(g.TIDs); len(g.Rows) != want && (q.Rows || len(g.Rows) != min(1, want)) {
					t.Fatalf("query %d: accepted %d rows for %d TIDs", qi, len(g.Rows), want)
				}
			}
		}
	})
}
