package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"semandaq/internal/engine"
	"semandaq/internal/relation"
	"semandaq/internal/wal"
)

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRouteParity pins the contract of the one handler set: every
// public route, walked in order against a local server and a one-worker
// cluster over the same data, answers in the same status class with the
// same top-level keys — except the keys only one backend has, listed
// per route — and the routes that need engine sessions are exactly the
// coordinator's 501s. A new route is added to newServer and to this
// table; the table is checked against the HandleFunc calls in
// server.go.
func TestRouteParity(t *testing.T) {
	const zipstr = "dc zipstr: !( t.CC = u.CC & t.ZIP = u.ZIP & t.STR != u.STR )"
	ds := map[string]any{"dataset": "cust"}
	x := "Parity Rd"
	infoLocal := []string{"index_cache", "index_resident_bytes"}
	routes := []struct {
		pattern string // as registered
		path    string // pattern with {name} bound ("" = same as in pattern)
		body    any
		// local and cluster list the top-level response keys only that
		// backend has; sessions marks the routes a coordinator answers 501.
		local, cluster []string
		sessions       bool
	}{
		{pattern: "GET /healthz", cluster: []string{"workers"}},
		{pattern: "POST /v1/datasets", body: map[string]any{
			"name": "cust", "generate": map[string]any{"kind": "cust", "n": 300, "rate": 0.05, "seed": 1},
		}, local: infoLocal, cluster: []string{"shards"}},
		{pattern: "GET /v1/datasets"},
		{pattern: "GET /v1/datasets/{name}", path: "/v1/datasets/cust", local: infoLocal, cluster: []string{"shards"}},
		{pattern: "POST /v1/constraints", body: map[string]any{
			"dataset": "cust", "cfds": "cfd phi1: cust([CC='44', ZIP] -> [STR])\n",
		}},
		{pattern: "POST /v1/detect", body: ds, cluster: []string{"residual", "workers"}},
		{pattern: "GET /v1/datasets/{name}/violations", path: "/v1/datasets/cust/violations", cluster: []string{"residual"}},
		{pattern: "POST /v1/repair", body: map[string]any{"dataset": "cust", "accept": true}, sessions: true},
		{pattern: "POST /v1/repair/incremental", body: map[string]any{
			"dataset": "cust", "tuples": [][]string{{"01", "908", "908-1111111", "amy", "Main Rd", "mh", "07974"}},
		}, local: []string{"repair"}},
		{pattern: "POST /v1/discover", body: map[string]any{"dataset": "cust", "min_support": 20, "max_lhs": 1}},
		{pattern: "POST /v1/edit", body: map[string]any{"dataset": "cust", "tid": 0, "attr": "STR", "value": &x}, sessions: true},
		{pattern: "POST /v1/dcs", body: map[string]any{"dataset": "cust", "dcs": zipstr}},
		{pattern: "GET /v1/datasets/{name}/dcs", path: "/v1/datasets/cust/dcs"},
		{pattern: "POST /v1/dc/detect", body: ds, cluster: []string{"residual"}},
		{pattern: "POST /v1/dc/relax", body: map[string]any{"dataset": "cust", "dc": "zipstr"}, sessions: true},
		{pattern: "GET /v1/stats", cluster: []string{"workers"}},
		{pattern: "DELETE /v1/datasets/{name}", path: "/v1/datasets/cust"},
	}
	shard := []string{"POST /v1/shard/register", "POST /v1/shard/detect", "POST /v1/shard/groups", "POST /v1/shard/dc"}

	// The table is the route table: one HandleFunc call per pattern.
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	var registered, want []string
	for _, m := range regexp.MustCompile(`HandleFunc\("([^"]+)"`).FindAllSubmatch(src, -1) {
		registered = append(registered, string(m[1]))
	}
	for _, r := range routes {
		want = append(want, r.pattern)
	}
	want = append(want, shard...)
	sort.Strings(registered)
	sort.Strings(want)
	if !slices.Equal(registered, want) {
		t.Fatalf("server.go registers\n %q\nthis table walks\n %q", registered, want)
	}

	local, cluster := newTestServer(t), startCluster(t, 1)
	for _, r := range routes {
		method, path, _ := strings.Cut(r.pattern, " ")
		if r.path != "" {
			path = r.path
		}
		lc, lb := call(t, local, method, path, r.body)
		cc, cb := call(t, cluster, method, path, r.body)
		if lc/100 != 2 {
			t.Fatalf("%s: local %d %v", r.pattern, lc, lb)
		}
		if r.sessions {
			if cc != http.StatusNotImplemented || cb["error"] == nil {
				t.Errorf("%s: cluster %d %v, want 501 with an error body", r.pattern, cc, cb)
			}
			continue
		}
		if cc/100 != 2 {
			t.Errorf("%s: cluster %d %v, local %d", r.pattern, cc, cb, lc)
			continue
		}
		wantKeys := keysOf(lb)
		wantKeys = slices.DeleteFunc(wantKeys, func(k string) bool { return slices.Contains(r.local, k) })
		wantKeys = append(wantKeys, r.cluster...)
		sort.Strings(wantKeys)
		if got := keysOf(cb); !slices.Equal(got, wantKeys) {
			t.Errorf("%s: cluster keys %q, want %q (local %q - %q + %q)",
				r.pattern, got, wantKeys, keysOf(lb), r.local, r.cluster)
		}
	}
	// The worker half of the shard protocol exists only beside sessions
	// (the mux's own 404 is plain text, so only the status is read).
	for _, pattern := range shard {
		_, path, _ := strings.Cut(pattern, " ")
		for _, ts := range []*httptest.Server{local, cluster} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if missing := resp.StatusCode == http.StatusNotFound; missing != (ts == cluster) {
				t.Errorf("%s: %d; want it mounted locally and 404 on the coordinator", pattern, resp.StatusCode)
			}
		}
	}
}

var errDisk = errors.New("disk full")

// brokenJournal is an engine.Journal whose every write fails.
type brokenJournal struct{}

func (brokenJournal) LogRegister(string, *relation.Schema, []relation.Tuple) error { return errDisk }
func (brokenJournal) LogAppend(string, []relation.Tuple) error                     { return errDisk }
func (brokenJournal) LogCells(string, []wal.CellWrite, bool) error                 { return errDisk }
func (brokenJournal) LogConfirm(string, int, int) error                            { return errDisk }
func (brokenJournal) LogConstraints(string, string) error                          { return errDisk }
func (brokenJournal) LogDCs(string, string) error                                  { return errDisk }
func (brokenJournal) LogDrop(string) error                                         { return errDisk }
func (brokenJournal) LogAppendRaw(string, [][]string) error                        { return errDisk }

// TestJournalFailureIsServerError: a mutation the journal refuses is
// the service's fault in both modes — 500, never the 404 "unknown
// dataset" a refused drop used to get for a dataset that exists, nor
// the 409 a refused append did — and the dataset stays registered.
func TestJournalFailureIsServerError(t *testing.T) {
	eng := engine.New(engine.Options{})
	worker := httptest.NewServer(New(engine.New(engine.Options{})))
	t.Cleanup(worker.Close)
	coord, err := engine.NewCoordinator([]engine.ShardClient{NewShardClient(worker.URL, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name       string
		handler    http.Handler
		setJournal func(engine.Journal)
	}{
		{"local", New(eng), eng.SetJournal},
		{"cluster", NewCoordinator(coord), coord.SetJournal},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ts := httptest.NewServer(mode.handler)
			t.Cleanup(ts.Close)
			registerCust(t, ts, "cust", 100)
			mode.setJournal(brokenJournal{})
			for _, op := range []struct {
				method, path string
				body         any
				want         int
			}{
				{"POST", "/v1/repair/incremental", map[string]any{
					"dataset": "cust", "tuples": [][]string{{"01", "908", "908-1111111", "amy", "Main Rd", "mh", "07974"}},
				}, http.StatusInternalServerError},
				{"DELETE", "/v1/datasets/cust", nil, http.StatusInternalServerError},
				{"GET", "/v1/datasets/cust", nil, http.StatusOK},
				{"DELETE", "/v1/datasets/ghost", nil, http.StatusNotFound},
			} {
				if code, body := call(t, ts, op.method, op.path, op.body); code != op.want {
					t.Errorf("%s %s with a failing journal = %d %v, want %d", op.method, op.path, code, body, op.want)
				}
			}
			mode.setJournal(nil)
			if code, body := call(t, ts, "DELETE", "/v1/datasets/cust", nil); code != http.StatusOK {
				t.Errorf("drop once the journal is detached = %d %v", code, body)
			}
		})
	}
}
