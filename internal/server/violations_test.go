package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

// violationJSON and referenceBody are the violation routes' write path
// as it was before the hand-written encoder: a []violationJSON and the
// sorted TID set in the response map, through writeJSON. The tests
// below hold encodeViolations to its bytes.
type violationJSON struct {
	CFD  string `json:"cfd"`
	Row  int    `json:"row"`
	Kind string `json:"kind"`
	Attr string `json:"attr"`
	TIDs []int  `json:"tids"`
}

func referenceBody(out map[string]any, schema *relation.Schema, vs, shown []cfd.Violation) []byte {
	list := make([]violationJSON, len(shown))
	for i, v := range shown {
		list[i] = violationJSON{
			CFD:  v.CFD.Name(),
			Row:  v.Row,
			Kind: v.Kind.String(),
			Attr: schema.Attr(v.Attr).Name,
			TIDs: v.TIDs,
		}
	}
	ref := maps.Clone(out)
	ref["tids"], ref["violations"] = cfd.ViolatingTIDs(vs), list
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ref)
	return rec.Body.Bytes()
}

// TestViolationBodyIdentity: for the same list and the same small keys,
// the new write path produces the bytes writeJSON produced — local and
// cluster, read and detect, truncated and degraded — and the read route
// serves exactly those bytes over HTTP, first from the encoder and then
// from the cache.
func TestViolationBodyIdentity(t *testing.T) {
	local := httptest.NewServer(New(engine.New(engine.Options{})))
	t.Cleanup(local.Close)

	// A two-worker cluster whose second worker can be shut down.
	clients := make([]engine.ShardClient, 2)
	workers := make([]*httptest.Server, 2)
	for i := range clients {
		eng := engine.New(engine.Options{})
		workers[i] = httptest.NewServer(New(eng))
		t.Cleanup(workers[i].Close)
		t.Cleanup(eng.Close)
		clients[i] = NewShardClient(workers[i].URL, 5*time.Second)
	}
	coord, err := engine.NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	cluster := httptest.NewServer(NewCoordinator(coord))
	t.Cleanup(cluster.Close)

	for _, mode := range []struct {
		name string
		ts   *httptest.Server
	}{{"local", local}, {"cluster", cluster}} {
		t.Run(mode.name, func(t *testing.T) {
			registerCust(t, mode.ts, "cust", 400)
			ds, ok := mode.ts.Config.Handler.(*Server).reg.Lookup("cust")
			if !ok {
				t.Fatal("dataset not registered")
			}
			check := func(what string, out map[string]any, vs, shown []cfd.Violation) {
				t.Helper()
				if len(vs) == 0 {
					t.Fatalf("%s: no violations to encode", what)
				}
				got, want := encodeViolations(out, ds.Schema(), vs, shown), referenceBody(out, ds.Schema(), vs, shown)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: encoded body differs from writeJSON's\n got %.300s\nwant %.300s", what, got, want)
				}
			}

			res, err := ds.Detect()
			if err != nil {
				t.Fatal(err)
			}
			vs := res.Violations
			out := map[string]any{"count": len(vs), "elapsed_ms": 1.25}
			mergeInfo(out, res)
			if res.Workers != nil {
				out["workers"] = res.Workers
			}
			check("detect", out, vs, vs)
			check("detect limit=3", out, vs, vs[:3])
			check("detect limit=0 shown", out, vs, vs[:0])

			if res, err = ds.Violations(); err != nil {
				t.Fatal(err)
			}
			vs = res.Violations
			out = map[string]any{"count": len(vs)}
			mergeInfo(out, res)
			check("read", out, vs, vs)
			want := referenceBody(out, ds.Schema(), vs, vs)
			for _, pass := range []string{"encoded", "cached"} {
				resp, body := do(t, mode.ts, "GET", "/v1/datasets/cust/violations", nil)
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
					t.Fatalf("%s GET: %d, body differs from writeJSON's\n got %.300s\nwant %.300s", pass, resp.StatusCode, body, want)
				}
				if resp.Header.Get("Content-Length") != strconv.Itoa(len(want)) || resp.Header.Get("Content-Type") != "application/json" {
					t.Fatalf("%s GET: headers %v", pass, resp.Header)
				}
			}

			// The detect route over HTTP: same list, truncated on request,
			// count and tids still covering all of it.
			resp, body := do(t, mode.ts, "POST", "/v1/detect", map[string]any{"dataset": "cust", "limit": 2})
			var reply struct {
				Count      int
				TIDs       []int
				Violations []violationJSON
			}
			if err := json.Unmarshal(body, &reply); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("detect: %d %v", resp.StatusCode, err)
			}
			if reply.Count != len(vs) || len(reply.Violations) != 2 || len(reply.TIDs) != len(cfd.ViolatingTIDs(vs)) ||
				resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || resp.Header.Get("ETag") != "" {
				t.Fatalf("detect limit=2: count %d, %d shown, %d tids, headers %v", reply.Count, len(reply.Violations), len(reply.TIDs), resp.Header)
			}
		})
	}

	// Degraded: the surviving shard's list with the failure report beside it.
	workers[1].Close()
	ds, _ := cluster.Config.Handler.(*Server).reg.Lookup("cust")
	res, err := ds.Detect()
	if err != nil || !res.Degraded || len(res.Violations) == 0 {
		t.Fatalf("degraded detect: %v, %v", res, err)
	}
	vs := res.Violations
	out := map[string]any{"count": len(vs), "elapsed_ms": 0.5, "workers": res.Workers}
	mergeInfo(out, res)
	if got, want := encodeViolations(out, ds.Schema(), vs, vs), referenceBody(out, ds.Schema(), vs, vs); !bytes.Equal(got, want) {
		t.Fatalf("degraded detect: encoded body differs from writeJSON's\n got %.300s\nwant %.300s", got, want)
	}
}

// FuzzViolationEncoder feeds arbitrary CFD and attribute names and TID
// lists through both encoders. Names reach the response unvalidated (a
// schema accepts any non-empty attribute name), so quotes, control
// bytes, invalid UTF-8, U+2028 and <>& — HTML escaping is off — must
// all come out as encoding/json writes them.
func FuzzViolationEncoder(f *testing.F) {
	f.Add("phi1", "STR", []byte{3, 2, 4, 9, 1, 0, 2, 200, 1}, uint8(0))
	f.Add(`q"uo\te`, "<a&b> \x00\x1f\x7f", []byte{8, 7, 1, 3, 5, 7, 9, 11, 13, 15}, uint8(1))
	f.Add("\xff\xfe", "é 日本", []byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(3))
	f.Add("", "\t\n\r\b\f", []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, cfdName, attrName string, data []byte, limit uint8) {
		schema, err := relation.StringSchema("r", "\x00key", attrName)
		if err != nil {
			t.Skip() // empty or colliding attribute name
		}
		var cfds [2]*cfd.CFD
		for i, name := range []string{cfdName, cfdName + "'"} {
			if cfds[i], err = cfd.New(name, schema, []string{"\x00key"}, []string{attrName}, nil); err != nil {
				t.Fatal(err)
			}
		}
		// data is a sequence of violations: a header byte — CFD, kind
		// and TID count from its bits, 0 TIDs meaning a nil list and 1 an
		// empty one — then the TIDs as signed varints.
		var vs []cfd.Violation
		for len(data) > 0 {
			h := int(data[0])
			data = data[1:]
			v := cfd.Violation{CFD: cfds[h>>3&1], Row: h, Kind: cfd.ViolationKind(h >> 4 & 1), Attr: 1}
			if h%8 > 0 {
				v.TIDs = []int{}
			}
			for i := 1; i < h%8 && len(data) > 0; i++ {
				x, n := binary.Varint(data)
				if n <= 0 {
					data = nil
					break
				}
				v.TIDs, data = append(v.TIDs, int(x)), data[n:]
			}
			vs = append(vs, v)
		}
		shown := vs
		if limit > 0 && int(limit) < len(vs) {
			shown = vs[:limit]
		}
		out := map[string]any{"count": len(vs), "elapsed_ms": 0.75, "residual": residualInfo(cfd.MergeStats{})}
		if got, want := encodeViolations(out, schema, vs, shown), referenceBody(out, schema, vs, shown); !bytes.Equal(got, want) {
			t.Fatalf("encoders differ\n got %q\nwant %q", got, want)
		}
	})
}

// TestViolationsETag: the read route tags its body, answers a matching
// If-None-Match with an empty 304, keeps the tag across an append that
// carries the list over and changes it whenever the list could have
// changed; /v1/stats counts all of it, in both modes.
func TestViolationsETag(t *testing.T) {
	const path = "/v1/datasets/cust/violations"
	get := func(t *testing.T, ts *httptest.Server, ifNoneMatch string) (int, string, []byte) {
		t.Helper()
		resp, body := do(t, ts, "GET", path, nil, "If-None-Match", ifNoneMatch)
		return resp.StatusCode, resp.Header.Get("ETag"), body
	}
	for _, mode := range []struct {
		name  string
		ts    *httptest.Server
		local bool
	}{{"local", newTestServer(t), true}, {"cluster", startCluster(t, 2), false}} {
		t.Run(mode.name, func(t *testing.T) {
			ts := mode.ts
			registerCust(t, ts, "cust", 300)
			code, tag, body := get(t, ts, "")
			if code != http.StatusOK || len(tag) < 4 || tag[0] != '"' || tag[len(tag)-1] != '"' || len(body) == 0 {
				t.Fatalf("first read: %d, ETag %q, %d bytes", code, tag, len(body))
			}
			for _, header := range []string{tag, `"other", W/` + tag, "*"} {
				if code, again, empty := get(t, ts, header); code != http.StatusNotModified || again != tag || len(empty) != 0 {
					t.Fatalf("If-None-Match %s: %d, ETag %q, %d bytes; want an empty 304 with the tag", header, code, again, len(empty))
				}
			}
			if code, again, full := get(t, ts, `"stale"`); code != http.StatusOK || again != tag || !bytes.Equal(full, body) {
				t.Fatalf("If-None-Match of another tag: %d, ETag %q", code, again)
			}
			// An explicit detect finds the list the dataset already holds.
			if code, reply := call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "cust"}); code != http.StatusOK {
				t.Fatalf("detect: %d %v", code, reply)
			}
			if _, again, _ := get(t, ts, ""); again != tag {
				t.Fatalf("ETag moved from %s to %s across a detect that changed nothing", tag, again)
			}

			// changed runs one mutation and asserts the tag moved.
			changed := func(what string, mutate func()) {
				t.Helper()
				mutate()
				code, next, _ := get(t, ts, tag)
				if code != http.StatusOK || next == tag || next == "" {
					t.Fatalf("after %s: %d with ETag %s, was %s; want a new body", what, code, next, tag)
				}
				tag = next
			}
			post := func(path string, body map[string]any) func() {
				return func() {
					t.Helper()
					if code, reply := call(t, ts, "POST", path, body); code != http.StatusOK {
						t.Fatalf("POST %s: %d %v", path, code, reply)
					}
				}
			}
			wantHits, wantMisses, wantNotModified := 2, 1, 3
			if mode.local {
				// An append of a clean row carries the list over.
				post("/v1/repair/incremental", map[string]any{"dataset": "cust",
					"tuples": [][]string{{"01", "908", "908-1111111", "amy", "Main Rd", "mh", "07974"}}})()
				if code, again, _ := get(t, ts, tag); code != http.StatusNotModified || again != tag {
					t.Fatalf("after an append: %d with ETag %s, was %s; appends do not invalidate the served list", code, again, tag)
				}
				wantNotModified++
				street := "Etag Rd"
				changed("an edit", post("/v1/edit", map[string]any{"dataset": "cust", "tid": 0, "attr": "STR", "value": &street}))
				changed("an accepted repair", post("/v1/repair", map[string]any{"dataset": "cust", "accept": true}))
				wantMisses += 2
			}
			changed("a constraints install", post("/v1/constraints", map[string]any{
				"dataset": "cust", "cfds": "cfd phi1: cust([CC='44', ZIP] -> [STR])\n"}))
			changed("drop + register under the same name", func() {
				if code, reply := call(t, ts, "DELETE", "/v1/datasets/cust", nil); code != http.StatusOK {
					t.Fatalf("drop: %d %v", code, reply)
				}
				registerCust(t, ts, "cust", 300)
			})
			wantMisses += 2

			code, stats := call(t, ts, "GET", "/v1/stats", nil)
			vb, _ := stats["violation_bodies"].(map[string]any)
			_, _, body = get(t, ts, "")
			want := map[string]any{"hits": float64(wantHits), "misses": float64(wantMisses),
				"not_modified": float64(wantNotModified), "bytes": float64(len(body))}
			if code != http.StatusOK || !maps.Equal(vb, want) {
				t.Fatalf("violation_bodies = %v, want %v", vb, want)
			}
		})
	}
}

// TestViolationBodiesConcurrent (-race): reads, detects, appends and
// edits race on one dataset. Mutations are serialised by the test, and
// after each the state's true list — a cfd.Detector over a snapshot,
// which shares nothing with the caches — is recorded. Every 200 body must be the
// list of some state the session passed through, and a read issued
// after an edit returned, with no mutation in between, must be the list
// of the state that edit produced: a stale generation is never served.
func TestViolationBodiesConcurrent(t *testing.T) {
	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	registerCust(t, ts, "cust", 300)
	sess, _ := eng.Get("cust")

	// canon reduces a list to the bytes the read route serves for it.
	canon := func(vs []cfd.Violation) string {
		return string(referenceBody(map[string]any{"count": len(vs)}, sess.Schema(), vs, vs))
	}
	var mut sync.Mutex // serialises mutations; guards states
	states := map[string]bool{}
	record := func() string {
		vs, err := cfd.NewDetector(sess.Constraints()).Detect(sess.Snapshot())
		if err != nil {
			t.Error(err)
		}
		s := canon(vs)
		states[s] = true
		return s
	}
	record()

	request := func(method, path string, body any) (int, []byte) {
		var rd io.Reader
		if body != nil {
			raw, _ := json.Marshal(body)
			rd = bytes.NewReader(raw)
		}
		req, _ := http.NewRequest(method, ts.URL+path, rd)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	const rounds = 25
	var wg sync.WaitGroup
	var seenMu sync.Mutex
	var seen []string // every 200 body, as canon would render its list
	serve := func(kind string, code int, body []byte) {
		if code != http.StatusOK {
			t.Errorf("%s: %d %s", kind, code, body)
			return
		}
		// Both routes reduce to count + tids + violations: a detect
		// body through its decoded list, a read body as it is.
		var reply struct {
			Count      int             `json:"count"`
			TIDs       []int           `json:"tids"`
			Violations []violationJSON `json:"violations"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Errorf("%s: %v", kind, err)
			return
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]any{"count": reply.Count, "tids": reply.TIDs, "violations": reply.Violations})
		seenMu.Lock()
		seen = append(seen, rec.Body.String())
		seenMu.Unlock()
	}
	for c := 0; c < 3; c++ {
		wg.Add(2)
		go func() { // readers
			defer wg.Done()
			for i := 0; i < rounds*2; i++ {
				code, body := request("GET", "/v1/datasets/cust/violations", nil)
				serve("read", code, body)
			}
		}()
		go func() { // detectors
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				code, body := request("POST", "/v1/detect", map[string]any{"dataset": "cust"})
				serve("detect", code, body)
			}
		}()
	}
	wg.Add(2)
	go func() { // editor: every edit changes what phi1 or phi3 sees
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			value := fmt.Sprintf("edit %d", i)
			mut.Lock()
			code, body := request("POST", "/v1/edit", map[string]any{
				"dataset": "cust", "tid": (i * 7) % 300, "attr": []string{"STR", "CT"}[i%2], "value": &value})
			if code != http.StatusOK {
				t.Errorf("edit: %d %s", code, body)
			}
			want := record()
			code, body = request("GET", "/v1/datasets/cust/violations", nil)
			if code != http.StatusOK || string(body) != want {
				t.Errorf("read after edit %d returned: %d, not the list of the edited state", i, code)
			}
			mut.Unlock()
		}
	}()
	go func() { // appender: a refused append (409) leaves the state as it was
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			mut.Lock()
			code, body := request("POST", "/v1/repair/incremental", map[string]any{"dataset": "cust",
				"tuples": [][]string{{"01", "908", fmt.Sprintf("908-%07d", i), "amy", "Main Rd", "mh", "07974"}}})
			if code != http.StatusOK && code != http.StatusConflict {
				t.Errorf("append: %d %s", code, body)
			}
			record()
			mut.Unlock()
		}
	}()
	wg.Wait()
	if len(states) < 5 {
		t.Fatalf("only %d distinct states: the edits hardly changed the list", len(states))
	}
	for _, s := range seen {
		if !states[s] {
			t.Fatalf("a served body is the list of no state the session passed through: %.200s", s)
		}
	}
}
