package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"semandaq/internal/engine"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(engine.New(engine.Options{})))
	t.Cleanup(ts.Close)
	return ts
}

// do sends one request to ts and returns the response with its body read.
func do(t *testing.T, ts *httptest.Server, method, path string, body any, header ...string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// call performs a JSON request and decodes the JSON response.
func call(t *testing.T, ts *httptest.Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	resp, raw := do(t, ts, method, path, body)
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return resp.StatusCode, out
}

// registerCust registers a generated noisy cust dataset and installs
// the planted constraints.
func registerCust(t *testing.T, ts *httptest.Server, name string, n int) {
	t.Helper()
	code, body := call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name":     name,
		"generate": map[string]any{"kind": "cust", "n": n, "rate": 0.05, "seed": 1},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/constraints", map[string]any{
		"dataset": name,
		"cfds": `
cfd phi1: cust([CC='44', ZIP] -> [STR])
cfd phi3: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), ('01', '908' || 'mh') }
`,
	})
	if code != http.StatusOK {
		t.Fatalf("constraints: %d %v", code, body)
	}
	if body["installed"].(float64) != 2 {
		t.Fatalf("installed = %v", body["installed"])
	}
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	code, body := call(t, ts, "GET", "/healthz", nil)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ts := newTestServer(t)
	registerCust(t, ts, "cust", 500)

	// Duplicate registration conflicts.
	code, _ := call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name":     "cust",
		"generate": map[string]any{"kind": "cust", "n": 10},
	})
	if code != http.StatusConflict {
		t.Fatalf("duplicate register = %d", code)
	}

	code, body := call(t, ts, "GET", "/v1/datasets", nil)
	if code != http.StatusOK || len(body["datasets"].([]any)) != 1 {
		t.Fatalf("list: %d %v", code, body)
	}
	code, body = call(t, ts, "GET", "/v1/datasets/cust", nil)
	if code != http.StatusOK || body["tuples"].(float64) != 500 {
		t.Fatalf("info: %d %v", code, body)
	}
	code, _ = call(t, ts, "GET", "/v1/datasets/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("info unknown = %d", code)
	}
	code, _ = call(t, ts, "DELETE", "/v1/datasets/cust", nil)
	if code != http.StatusOK {
		t.Fatalf("drop = %d", code)
	}
	code, _ = call(t, ts, "DELETE", "/v1/datasets/cust", nil)
	if code != http.StatusNotFound {
		t.Fatalf("double drop = %d", code)
	}
}

func TestRegisterInlineCSV(t *testing.T) {
	ts := newTestServer(t)
	code, body := call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name": "mini",
		"schema": map[string]any{
			"name": "mini",
			"attrs": []map[string]any{
				{"name": "A", "kind": "string"},
				{"name": "B", "kind": "int"},
			},
		},
		"csv": "A,B\nx,1\ny,2\n",
	})
	if code != http.StatusCreated {
		t.Fatalf("register csv: %d %v", code, body)
	}
	if body["tuples"].(float64) != 2 {
		t.Fatalf("tuples = %v", body["tuples"])
	}
	// Bad CSV surfaces as 400 with a JSON error.
	code, body = call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name": "bad",
		"schema": map[string]any{
			"name":  "bad",
			"attrs": []map[string]any{{"name": "A", "kind": "string"}},
		},
		"csv": "WRONG\nx\n",
	})
	if code != http.StatusBadRequest || body["error"] == "" {
		t.Fatalf("bad csv: %d %v", code, body)
	}
}

func TestDetectRepairFlow(t *testing.T) {
	ts := newTestServer(t)
	registerCust(t, ts, "cust", 800)

	code, body := call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "cust"})
	if code != http.StatusOK {
		t.Fatalf("detect: %d %v", code, body)
	}
	count := body["count"].(float64)
	if count == 0 {
		t.Fatal("noisy dataset should have violations")
	}
	if len(body["violations"].([]any)) != int(count) {
		t.Fatalf("violations list (%d) disagrees with count (%v)", len(body["violations"].([]any)), count)
	}

	// limit truncates the list but not the count.
	code, body = call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "cust", "limit": 1})
	if code != http.StatusOK || body["count"].(float64) != count || len(body["violations"].([]any)) != 1 {
		t.Fatalf("detect limit: %d %v", code, body)
	}

	// Cached violations endpoint agrees.
	code, body = call(t, ts, "GET", "/v1/datasets/cust/violations", nil)
	if code != http.StatusOK || body["count"].(float64) != count {
		t.Fatalf("violations: %d %v", code, body)
	}

	// Repair with accept leaves the dataset clean.
	code, body = call(t, ts, "POST", "/v1/repair", map[string]any{"dataset": "cust", "accept": true})
	if code != http.StatusOK {
		t.Fatalf("repair: %d %v", code, body)
	}
	if len(body["changes"].([]any)) == 0 || body["accepted"] != true {
		t.Fatalf("repair result: %v", body)
	}
	code, body = call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "cust"})
	if code != http.StatusOK || body["count"].(float64) != 0 {
		t.Fatalf("post-repair detect: %d %v", code, body)
	}
}

func TestRepairIncremental(t *testing.T) {
	ts := newTestServer(t)
	// Clean base so the IncRepair precondition holds.
	code, body := call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name":     "base",
		"generate": map[string]any{"kind": "cust", "n": 400, "rate": 0, "seed": 5},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/constraints", map[string]any{
		"dataset": "base",
		"cfds":    "cfd phi1: cust([CC='44', ZIP] -> [STR])",
	})
	if code != http.StatusOK {
		t.Fatalf("constraints: %d %v", code, body)
	}
	// Find an existing UK zip group to conflict with: read two tuples
	// back via a detect-less route — generate deterministically instead.
	// The generator's first EH zip is "EH0 0XX" with street "edi street 0".
	code, body = call(t, ts, "POST", "/v1/repair/incremental", map[string]any{
		"dataset": "base",
		"tuples": [][]string{
			{"44", "131", "131-0000001", "zoe", "wrong street", "edi", "EH0 0XX"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("incremental: %d %v", code, body)
	}
	if body["appended"].(float64) != 1 || body["tuples"].(float64) != 401 {
		t.Fatalf("incremental counts: %v", body)
	}
	// After incremental repair the whole dataset is violation-free.
	code, body = call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "base"})
	if code != http.StatusOK || body["count"].(float64) != 0 {
		t.Fatalf("post-incremental detect: %d %v", code, body)
	}

	// A second append on the now-warm session must be served by
	// advancing the cached partitions, not rebuilding them — the dataset
	// JSON exposes the advances counter and misses stay frozen.
	code, body = call(t, ts, "GET", "/v1/datasets/base", nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	warm := body["index_cache"].(map[string]any)
	code, body = call(t, ts, "POST", "/v1/repair/incremental", map[string]any{
		"dataset": "base",
		"tuples": [][]string{
			{"44", "131", "131-0000002", "amy", "wrong street", "edi", "EH0 0XX"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("second incremental: %d %v", code, body)
	}
	code, body = call(t, ts, "GET", "/v1/datasets/base", nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	after := body["index_cache"].(map[string]any)
	if after["misses"].(float64) != warm["misses"].(float64) {
		t.Fatalf("warm incremental append rebuilt partitions: %v -> %v", warm, after)
	}
	if after["advances"].(float64) <= warm["advances"].(float64) {
		t.Fatalf("warm incremental append did not advance partitions: %v -> %v", warm, after)
	}

	// Arity mismatch is a 400.
	code, body = call(t, ts, "POST", "/v1/repair/incremental", map[string]any{
		"dataset": "base",
		"tuples":  [][]string{{"44", "131"}},
	})
	if code != http.StatusBadRequest || body["error"] == "" {
		t.Fatalf("arity mismatch: %d %v", code, body)
	}
}

// TestIncrementalRepairPatchCounter pins the patches counter in the
// per-dataset JSON: on a chained constraint set — psi1 repairs CT from
// the region tableau, psi2 keys a detection partition on (CT, ZIP) —
// a dirty incremental append drains the repair's CT write into the
// warm (CT, ZIP) partition as a per-cell patch instead of rebuilding
// it, and the dataset stats show it.
func TestIncrementalRepairPatchCounter(t *testing.T) {
	ts := newTestServer(t)
	code, body := call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name":     "base",
		"generate": map[string]any{"kind": "cust", "n": 400, "rate": 0, "seed": 5},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/constraints", map[string]any{
		"dataset": "base",
		"cfds": "cfd psi1: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi') }\n" +
			"cfd psi2: cust([CT, ZIP] -> [STR])",
	})
	if code != http.StatusOK {
		t.Fatalf("constraints: %d %v", code, body)
	}
	// Warm the detection partitions, then snapshot the cache counters.
	if code, body = call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "base"}); code != http.StatusOK {
		t.Fatalf("warm detect: %d %v", code, body)
	}
	code, body = call(t, ts, "GET", "/v1/datasets/base", nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	warm := body["index_cache"].(map[string]any)
	// A delta tuple with a corrupted CT: psi1's tableau repairs it back
	// to "edi", and that Set is a per-cell patch into psi2's cached
	// (CT, ZIP) partition.
	code, body = call(t, ts, "POST", "/v1/repair/incremental", map[string]any{
		"dataset": "base",
		"tuples": [][]string{
			{"44", "131", "131-0000009", "ian", "edi street 0", "zzz", "EH0 0XX"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("dirty incremental: %d %v", code, body)
	}
	if rep := body["repair"].(map[string]any); len(rep["changes"].([]any)) == 0 {
		t.Fatalf("corrupted delta repaired no cells: %v", body)
	}
	code, body = call(t, ts, "GET", "/v1/datasets/base", nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	after := body["index_cache"].(map[string]any)
	if after["misses"].(float64) != warm["misses"].(float64) {
		t.Fatalf("dirty incremental append rebuilt partitions: %v -> %v", warm, after)
	}
	if after["patches"].(float64) <= warm["patches"].(float64) {
		t.Fatalf("repair write did not patch the cached partition: %v -> %v", warm, after)
	}
	code, body = call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "base"})
	if code != http.StatusOK || body["count"].(float64) != 0 {
		t.Fatalf("post-repair detect: %d %v", code, body)
	}
}

func TestDiscover(t *testing.T) {
	ts := newTestServer(t)
	code, body := call(t, ts, "POST", "/v1/datasets", map[string]any{
		"name":     "clean",
		"generate": map[string]any{"kind": "cust", "n": 300, "rate": 0, "seed": 7},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/discover", map[string]any{
		"dataset": "clean", "min_support": 10, "max_lhs": 2, "install": true,
	})
	if code != http.StatusOK {
		t.Fatalf("discover: %d %v", code, body)
	}
	if body["count"].(float64) == 0 {
		t.Fatal("discovery found nothing on generated data")
	}
	// The installed discovered set holds on its own data.
	code, body = call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "clean"})
	if code != http.StatusOK || body["count"].(float64) != 0 {
		t.Fatalf("detect after discover+install: %d %v", code, body)
	}
	// Discovery runs on the session's PLI cache, and the dataset JSON
	// reports its counters: the lattice walk must have registered
	// partition intersections (refines), not just full builds.
	code, body = call(t, ts, "GET", "/v1/datasets/clean", nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	cacheStats := body["index_cache"].(map[string]any)
	if cacheStats["refines"].(float64) == 0 {
		t.Fatalf("discovery registered no partition intersections: %v", cacheStats)
	}
	if cacheStats["misses"].(float64) == 0 {
		t.Fatalf("expected some full partition builds: %v", cacheStats)
	}
	// The tiered-storage counters are part of the JSON contract even
	// when no spill store is configured (both flat at zero here).
	for _, k := range []string{"spills", "pageins"} {
		if _, ok := cacheStats[k]; !ok {
			t.Fatalf("index_cache missing %q: %v", k, cacheStats)
		}
	}
	if _, ok := body["index_resident_bytes"].(float64); !ok {
		t.Fatalf("dataset JSON missing index_resident_bytes: %v", body)
	}
}

func TestEditAndConfirm(t *testing.T) {
	ts := newTestServer(t)
	registerCust(t, ts, "cust", 200)
	code, body := call(t, ts, "POST", "/v1/edit", map[string]any{
		"dataset": "cust", "tid": 0, "attr": "STR", "value": "confirmed street",
	})
	if code != http.StatusOK || body["confirmed"].(float64) != 1 {
		t.Fatalf("edit: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/edit", map[string]any{
		"dataset": "cust", "tid": 1, "attr": "CT", "confirm": true,
	})
	if code != http.StatusOK || body["confirmed"].(float64) != 2 {
		t.Fatalf("confirm: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/edit", map[string]any{
		"dataset": "cust", "tid": 0, "attr": "NOPE", "confirm": true,
	})
	if code != http.StatusBadRequest || body["error"] == "" {
		t.Fatalf("bad attr: %d %v", code, body)
	}
	code, body = call(t, ts, "POST", "/v1/edit", map[string]any{
		"dataset": "cust", "tid": 0, "attr": "CT",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("neither value nor confirm: %d %v", code, body)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	// Unknown dataset on every POST route.
	for _, path := range []string{"/v1/detect", "/v1/repair", "/v1/discover"} {
		code, body := call(t, ts, "POST", path, map[string]any{"dataset": "ghost"})
		if code != http.StatusNotFound || body["error"] == "" {
			t.Errorf("%s unknown dataset: %d %v", path, code, body)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	// Unknown fields are rejected (catches typoed requests).
	code, _ := call(t, ts, "POST", "/v1/detect", map[string]any{"dataset": "x", "workerz": 3})
	if code != http.StatusBadRequest {
		t.Errorf("unknown field = %d", code)
	}
	// Constraint parse error.
	registerCust(t, ts, "cust", 100)
	code, body := call(t, ts, "POST", "/v1/constraints", map[string]any{
		"dataset": "cust", "cfds": "this is not a cfd",
	})
	if code != http.StatusBadRequest || body["error"] == "" {
		t.Errorf("bad cfds: %d %v", code, body)
	}
}

// TestConcurrentDetect is the service-level acceptance check: many
// concurrent POST /v1/detect requests against a shared dataset, with a
// concurrent writer editing cells, all race-clean and all returning
// coherent responses.
func TestConcurrentDetect(t *testing.T) {
	ts := newTestServer(t)
	registerCust(t, ts, "cust", 2_000)

	const clients = 8
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				raw, _ := json.Marshal(map[string]any{"dataset": "cust"})
				resp, err := ts.Client().Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(raw))
				if err != nil {
					errCh <- err
					return
				}
				var body map[string]any
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d round %d: status %d (%v)", i, r, resp.StatusCode, body)
					return
				}
				if _, ok := body["count"].(float64); !ok {
					errCh <- fmt.Errorf("client %d round %d: malformed response %v", i, r, body)
					return
				}
			}
		}(i)
	}
	// Concurrent writer through the API.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*5; r++ {
			raw, _ := json.Marshal(map[string]any{
				"dataset": "cust", "tid": r % 2000, "attr": "STR",
				"value": fmt.Sprintf("street-%d", r),
			})
			resp, err := ts.Client().Post(ts.URL+"/v1/edit", "application/json", bytes.NewReader(raw))
			if err != nil {
				errCh <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("edit round %d: status %d", r, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
