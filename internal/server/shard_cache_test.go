package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

// Conditional phase-1 replies: a worker whose state did not move
// answers the coordinator's shard detect and shard DC detect with an
// empty 304, the client hands back the reply it holds, and the
// coordinator — seeing every worker's reply unchanged — answers from
// the list it merged last time, with no boundary round.

// zipDCs is the benchmark's cust DC: a boundary-crossing equality join.
const zipDCs = "dc zipstr: !( t.CC = u.CC & t.ZIP = u.ZIP & t.STR != u.STR )"

// timings matches every latency a response reports; two answers to the
// same question differ in nothing else.
var timings = regexp.MustCompile(`"elapsed_ms":[-+.0-9e]+`)

func untimed(body []byte) []byte { return timings.ReplaceAll(body, []byte(`"elapsed_ms":0`)) }

// appendRowAt makes a cust row in a zip no generated row has (so the
// tail worker's incremental repair and a single process's agree), with
// a wrong city when dirty — phi3 rewrites it.
func appendRowAt(seq int, dirty bool) []string {
	regions := [][3]string{{"44", "131", "edi"}, {"44", "141", "gla"}, {"01", "908", "mh"}, {"01", "212", "nyc"}}
	reg := regions[seq%len(regions)]
	ct := reg[2]
	if dirty {
		ct = regions[(seq+1)%len(regions)][2]
	}
	z := seq % 7
	return []string{reg[0], reg[1], fmt.Sprintf("%s-t%07d", reg[1], seq), "tester",
		fmt.Sprintf("test street %s-%d", reg[1], z), ct, fmt.Sprintf("ZT%s-%d", reg[1], z)}
}

func TestClusterUnchangedShardsAnswer304(t *testing.T) {
	for _, route := range []struct{ name, path, shard string }{
		{"detect", "/v1/detect", "/v1/shard/detect"},
		{"dc", "/v1/dc/detect", "/v1/shard/dc"},
	} {
		t.Run(route.name, func(t *testing.T) {
			taps := make([]*shardTap, 2)
			cs, raw := startFaultyCluster(t, 2, RetryPolicy{MaxAttempts: 1}, func(i int, h http.Handler) http.Handler {
				taps[i] = &shardTap{next: h}
				taps[i].reset()
				return taps[i]
			})
			install := func() {
				t.Helper()
				if code, body := call(t, cs, "POST", "/v1/constraints", map[string]any{"dataset": "cust", "cfds": fiveCFDs()}); code != http.StatusOK {
					t.Fatalf("constraints: %d %v", code, body)
				}
				if code, body := call(t, cs, "POST", "/v1/dcs", map[string]any{"dataset": "cust", "dcs": zipDCs}); code != http.StatusOK {
					t.Fatalf("dcs: %d %v", code, body)
				}
			}
			registerCust(t, cs, "cust", 2000)
			install()
			// run asks the route once and returns its body and, per worker,
			// the statuses of its phase-1 calls and its boundary calls.
			run := func() (body []byte, codes [2][]int, groups [2]int) {
				t.Helper()
				for _, tap := range taps {
					tap.reset()
				}
				resp, body := do(t, cs, "POST", route.path, map[string]any{"dataset": "cust"})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %d %s", route.path, resp.StatusCode, body)
				}
				for w, tap := range taps {
					codes[w], groups[w] = tap.codes[route.shard], tap.calls["/v1/shard/groups"]
				}
				return untimed(body), codes, groups
			}
			want := func(step string, codes [2][]int, w0, w1 int) {
				t.Helper()
				if !reflect.DeepEqual(codes, [2][]int{{w0}, {w1}}) {
					t.Fatalf("%s: phase-1 statuses per worker %v, want [[%d] [%d]]", step, codes, w0, w1)
				}
			}

			first, codes, groups := run()
			want("first", codes, 200, 200)
			if groups != [2]int{1, 1} {
				t.Fatalf("first: boundary calls %v — the fixture has no boundary groups, the test proves nothing", groups)
			}
			second, codes, groups := run()
			want("unchanged", codes, 304, 304)
			if groups != [2]int{} {
				t.Fatalf("unchanged: %v boundary calls, want none", groups)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("unchanged: answers differ\n first %.300s\nsecond %.300s", first, second)
			}

			if code, body := call(t, cs, "POST", "/v1/repair/incremental", map[string]any{
				"dataset": "cust", "tuples": [][]string{appendRowAt(0, false)},
			}); code != http.StatusOK {
				t.Fatalf("append: %d %v", code, body)
			}
			_, codes, _ = run()
			want("append", codes, 304, 200) // only the tail worker changed

			for _, step := range []struct {
				name string
				do   func()
			}{
				{"CFD install", func() {
					call(t, cs, "POST", "/v1/constraints", map[string]any{"dataset": "cust", "cfds": fiveCFDs()})
				}},
				{"DC install", func() {
					call(t, cs, "POST", "/v1/dcs", map[string]any{"dataset": "cust", "dcs": zipDCs})
				}},
				{"drop and register", func() {
					if code, _ := call(t, cs, "DELETE", "/v1/datasets/cust", nil); code != http.StatusOK {
						t.Fatalf("drop: %d", code)
					}
					registerCust(t, cs, "cust", 2000)
					install()
				}},
			} {
				step.do()
				_, codes, _ = run()
				want(step.name, codes, 200, 200)
				if _, codes, _ = run(); !reflect.DeepEqual(codes, [2][]int{{304}, {304}}) {
					t.Fatalf("after %s: a second ask got %v, want 304s", step.name, codes)
				}
			}

			// /v1/stats reports each worker's 304s next to its retries.
			code, stats := call(t, cs, "GET", "/v1/stats", nil)
			if code != http.StatusOK {
				t.Fatal("stats failed")
			}
			for w, cl := range raw {
				ws := stats["workers"].(map[string]any)[cl.URL()].(map[string]any)
				if got := ws["not_modified"].(float64); got != float64(cl.NotModified()) || got != float64(5-w) {
					t.Fatalf("worker %d: not_modified %v, client counted %d, want %d", w, got, cl.NotModified(), 5-w)
				}
			}
		})
	}

	t.Run("restarted worker", testRestartedWorker)
}

// TestWorkerProcess is not a test: it is the worker process
// testRestartedWorker starts (and kills, and starts again) at one
// address, so the restarted worker counts its versions from the start
// again exactly as a restarted daemon does.
func TestWorkerProcess(t *testing.T) {
	addr := os.Getenv("SEMANDAQ_TEST_WORKER_ADDR")
	if addr == "" {
		t.Skip("the worker process of testRestartedWorker")
	}
	eng := engine.New(engine.Options{})
	t.Fatal(http.ListenAndServe(addr, New(eng)))
}

func startWorkerProcess(t *testing.T, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWorkerProcess$")
	cmd.Env = append(os.Environ(), "SEMANDAQ_TEST_WORKER_ADDR="+addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("worker process did not come up")
		}
	}
}

// testRestartedWorker: a worker process killed and started again at its
// address, fed the same history of mutations, reaches the same session
// versions as its predecessor — only the boot nonce tells its tags
// apart. Its slice differs in one row, so a 304 to its predecessor's
// tag would hide a cross-shard violation.
func testRestartedWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	proc := startWorkerProcess(t, addr)

	eng := engine.New(engine.Options{})
	t.Cleanup(eng.Close)
	local := httptest.NewServer(New(eng))
	t.Cleanup(local.Close)
	raw := []*HTTPShardClient{NewShardClient(local.URL, 10*time.Second), NewShardClient("http://"+addr, 10*time.Second)}
	for _, cl := range raw {
		cl.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	}
	coord, err := engine.NewCoordinator([]engine.ShardClient{raw[0], raw[1]})
	if err != nil {
		t.Fatal(err)
	}
	schema := relation.MustSchema("kv",
		relation.Attribute{Name: "K", Kind: relation.KindString},
		relation.Attribute{Name: "V", Kind: relation.KindString})
	kv := func(pairs ...[2]string) []relation.Tuple {
		var out []relation.Tuple
		for _, p := range pairs {
			out = append(out, relation.Tuple{relation.String(p[0]), relation.String(p[1])})
		}
		return out
	}
	const cfds, dcs = "kv([K] -> [V])", "dc kv: !( t.K = u.K & t.V != u.V )"
	data := relation.New(schema)
	for _, row := range kv([2]string{"a", "x"}, [2]string{"b", "y"}, [2]string{"c", "z"}, [2]string{"d", "w"}) {
		data.MustInsert(row)
	}
	cd, err := coord.Register("kv", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.InstallConstraints("kv", cfds); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.InstallDCs("kv", dcs); err != nil {
		t.Fatal(err)
	}
	ask := func() (cfdCount, dcCount int) {
		t.Helper()
		res, err := cd.Detect()
		if err != nil {
			t.Fatal(err)
		}
		dcs, err := cd.DetectDCs(0)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Violations), len(dcs.Reports[0].Violations)
	}
	for i := 0; i < 2; i++ {
		if c, d := ask(); c != 0 || d != 0 {
			t.Fatalf("clean kv: %d CFD and %d DC violations", c, d)
		}
	}
	if raw[1].NotModified() != 2 {
		t.Fatalf("worker 1 answered %d 304s to the second ask, want 2", raw[1].NotModified())
	}

	proc.Process.Kill()
	proc.Wait()
	startWorkerProcess(t, addr)
	raw[1].hc.CloseIdleConnections()
	// The same three mutations the coordinator made, in its order; d's
	// row is now a second "a" that disagrees with worker 0's.
	if err := raw[1].Register("kv", schema, kv([2]string{"c", "z"}, [2]string{"a", "q"})); err != nil {
		t.Fatal(err)
	}
	if err := raw[1].InstallConstraints("kv", cfds); err != nil {
		t.Fatal(err)
	}
	if err := raw[1].InstallDCs("kv", dcs); err != nil {
		t.Fatal(err)
	}
	if c, d := ask(); c != 1 || d != 2 || raw[1].NotModified() != 2 {
		t.Fatalf("after the restart: %d CFD and %d DC violations, %d 304s from worker 1; want 1, 2 and still 2",
			c, d, raw[1].NotModified())
	}
}

// fields picks keys of a JSON object as raw bytes, to be compared byte
// for byte: the keys the single-process and the cluster answers share.
func fields(t *testing.T, body []byte, keys ...string) map[string]string {
	t.Helper()
	var all map[string]json.RawMessage
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatalf("%v: %.200s", err, body)
	}
	out := map[string]string{}
	for _, k := range keys {
		out[k] = string(all[k])
	}
	return out
}

// TestClusterRandomOpsMatchSingle drives one seeded random sequence of
// appends, detects, reads, DC detects, constraint and DC installs and
// drop + register through a two-worker cluster and a single process:
// every answer must be the same, byte for byte, whatever the shards
// answered 304 to.
func TestClusterRandomOpsMatchSingle(t *testing.T) {
	single := newTestServer(t)
	cluster := startCluster(t, 2)
	cfdSets := []string{
		"cfd phi1: cust([CC='44', ZIP] -> [STR])\ncfd phi3: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), ('01', '908' || 'mh') }",
		fiveCFDs(),
		"cfd phi5: cust([CT, ZIP] -> [STR])",
	}
	dcSets := []string{zipDCs, zipDCs + "\ndc ct: !( t.CC = u.CC & t.AC = u.AC & t.CT != u.CT )"}
	// both sends one request to each and fails unless the answers agree
	// on the status and on keys.
	both := func(step int, method, path string, body any, keys ...string) {
		t.Helper()
		r1, b1 := do(t, single, method, path, body)
		r2, b2 := do(t, cluster, method, path, body)
		if r1.StatusCode != r2.StatusCode {
			t.Fatalf("step %d %s %s: single %d %.200s, cluster %d %.200s", step, method, path, r1.StatusCode, b1, r2.StatusCode, b2)
		}
		if r1.StatusCode >= 300 {
			return
		}
		if f1, f2 := fields(t, b1, keys...), fields(t, b2, keys...); !reflect.DeepEqual(f1, f2) {
			t.Fatalf("step %d %s %s: answers differ\nsingle  %.400v\ncluster %.400v", step, method, path, f1, f2)
		}
	}
	register := func(step int) {
		both(step, "POST", "/v1/datasets", map[string]any{
			"name": "cust", "generate": map[string]any{"kind": "cust", "n": 400, "rate": 0.05, "seed": 1},
		}, "name", "tuples")
	}
	register(-1)
	rng := rand.New(rand.NewSource(1))
	seq := 0
	for step := 0; step < 80; step++ {
		switch op := rng.Intn(8); op {
		case 0:
			rows := make([][]string, 1+rng.Intn(3))
			for i := range rows {
				rows[i] = appendRowAt(seq, rng.Intn(4) == 0)
				seq++
			}
			both(step, "POST", "/v1/repair/incremental", map[string]any{"dataset": "cust", "tuples": rows}, "appended", "tuples")
		case 1, 2:
			both(step, "POST", "/v1/detect", map[string]any{"dataset": "cust"}, "count", "tids", "violations")
		case 3:
			both(step, "GET", "/v1/datasets/cust/violations", nil, "count", "tids", "violations")
		case 4:
			both(step, "POST", "/v1/dc/detect", map[string]any{"dataset": "cust", "limit": rng.Intn(2) * 5}, "count", "reports")
		case 5:
			both(step, "POST", "/v1/constraints", map[string]any{"dataset": "cust", "cfds": cfdSets[rng.Intn(len(cfdSets))]}, "installed")
		case 6:
			both(step, "POST", "/v1/dcs", map[string]any{"dataset": "cust", "dcs": dcSets[rng.Intn(len(dcSets))]}, "installed")
		case 7:
			if rng.Intn(3) == 0 { // rarer: it resets the history
				both(step, "DELETE", "/v1/datasets/cust", nil, "dropped")
				register(step)
			}
		}
	}
	_, stats := call(t, cluster, "GET", "/v1/stats", nil)
	total := 0.0
	for _, ws := range stats["workers"].(map[string]any) {
		total += ws.(map[string]any)["not_modified"].(float64)
	}
	if total == 0 {
		t.Fatal("no shard answered 304: the sequence never reached the reuse path")
	}
}

// TestClusterConcurrentDetectDCAppend: detects, DC detects and appends
// racing through one coordinator share its clients' held replies and
// the dataset's memos (run under -race by make race-cache). Once the
// appends stop, both answers equal a single process that took the same
// appends.
func TestClusterConcurrentDetectDCAppend(t *testing.T) {
	cluster := startCluster(t, 2)
	single := newTestServer(t)
	for _, ts := range []*httptest.Server{cluster, single} {
		registerCust(t, ts, "cust", 600)
		if code, body := call(t, ts, "POST", "/v1/dcs", map[string]any{"dataset": "cust", "dcs": zipDCs}); code != http.StatusOK {
			t.Fatalf("dcs: %d %v", code, body)
		}
	}
	const appends = 12
	// post is do for the goroutines below, which must not t.Fatal.
	post := func(path string, body any) error {
		raw, _ := json.Marshal(body)
		resp, err := cluster.Client().Post(cluster.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, 5) // one per goroutine
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := post(path, map[string]any{"dataset": "cust"}); err != nil {
					errs <- err
					return
				}
			}
		}([]string{"/v1/detect", "/v1/dc/detect"}[g%2])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := post("/v1/repair/incremental", map[string]any{"dataset": "cust", "tuples": [][]string{appendRowAt(i, i%3 == 0)}}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < appends; i++ {
		if code, body := call(t, single, "POST", "/v1/repair/incremental", map[string]any{"dataset": "cust", "tuples": [][]string{appendRowAt(i, i%3 == 0)}}); code != http.StatusOK {
			t.Fatalf("single append: %d %v", code, body)
		}
	}
	for _, q := range []struct {
		path string
		keys []string
	}{{"/v1/detect", []string{"count", "tids", "violations"}}, {"/v1/dc/detect", []string{"count", "reports"}}} {
		for i := 0; i < 2; i++ { // the second answer is the reused one
			_, want := do(t, single, "POST", q.path, map[string]any{"dataset": "cust"})
			_, got := do(t, cluster, "POST", q.path, map[string]any{"dataset": "cust"})
			if w, g := fields(t, want, q.keys...), fields(t, got, q.keys...); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s after the race: cluster %.300v, single %.300v", q.path, g, w)
			}
		}
	}
}
