package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/engine"
)

// The phase-1 reply of a cluster detect (POST /v1/shard/detect): the
// client checks it before the coordinator merges it or holds it for the
// next 304 — a bad reply that got through would be merged, and with an
// out-of-range attribute would panic the violation encoder, on every
// detect after.

// detectFixture is a worker holding 200 noisy cust rows with the five
// CFDs, the coordinator's copy of the set, and a real shard-detect
// request against the worker with the worker's real reply.
func detectFixture(tb testing.TB) (h http.Handler, set *cfd.Set, request, reply []byte) {
	eng := engine.New(engine.Options{})
	tb.Cleanup(eng.Close)
	h = New(eng)
	serve := func(path string, body any) []byte {
		raw, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		if rec.Code >= 300 {
			tb.Fatalf("fixture %s: %d %s", path, rec.Code, rec.Body)
		}
		return raw
	}
	serve("/v1/datasets", map[string]any{"name": "cust", "generate": map[string]any{"kind": "cust", "n": 200, "rate": 0.05, "seed": 1}})
	serve("/v1/constraints", map[string]any{"dataset": "cust", "cfds": fiveCFDs()})
	sess, _ := eng.Get("cust")
	set, err := cfd.ParseSet(fiveCFDs(), sess.Schema())
	if err != nil {
		tb.Fatal(err)
	}
	request = serve(shardDetectPath, shardDetectRequest{Dataset: "cust"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", shardDetectPath, bytes.NewReader(request)))
	return h, set, request, rec.Body.Bytes()
}

// decodeDetectReply is the client's path from reply bytes to results.
func decodeDetectReply(set *cfd.Set, reply []byte) ([]cfd.ShardResult, error) {
	var resp shardDetectReply
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, err
	}
	return decodeShardDetect(set, resp.CFDs)
}

// TestShardDetectDecodeRejects: a reply naming a tableau row, an
// attribute or a kind the CFD does not have, a constant violation of
// other than one tuple, TIDs out of order, an empty group or keys out
// of order is an error — over the wire an engine.ErrWorker one.
func TestShardDetectDecodeRejects(t *testing.T) {
	_, set, _, reply := detectFixture(t)
	if _, err := decodeDetectReply(set, reply); err != nil {
		t.Fatalf("the worker's own reply: %v", err)
	}
	c := set.All()[0] // phi1: cust([CC='44', ZIP] -> [STR])
	str := c.RHS()[0]
	mangle := func(f func(cfds []shardCFDJSON) []shardCFDJSON) []byte {
		var resp shardDetectReply
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.CFDs[0].Groups) < 2 {
			t.Fatal("the fixture has too few phi1 groups")
		}
		out, _ := json.Marshal(shardDetectReply{CFDs: f(resp.CFDs)})
		return out
	}
	// vio puts v as the only violation of phi1's first group, of n
	// members.
	vio := func(n int, v shardVioJSON) []byte {
		return mangle(func(cfds []shardCFDJSON) []shardCFDJSON {
			cfds[0].Groups[0].N, cfds[0].Groups[0].Vios = n, []shardVioJSON{v}
			return cfds
		})
	}
	if _, err := decodeDetectReply(set, vio(3, shardVioJSON{Row: 0, Kind: 1, Attr: str, TIDs: []int{0, 4, 9}})); err != nil {
		t.Fatalf("a well-formed violation: %v", err)
	}
	issue := vio(1, shardVioJSON{Row: 0, Kind: 0, Attr: 99, TIDs: []int{0}})
	for name, bad := range map[string][]byte{
		"row past the tableau": vio(1, shardVioJSON{Row: c.Rows(), Kind: 0, Attr: str, TIDs: []int{0}}),
		"negative row":         vio(1, shardVioJSON{Row: -1, Kind: 0, Attr: str, TIDs: []int{0}}),
		"attribute 99":         issue,
		"attribute on the LHS": vio(1, shardVioJSON{Row: 0, Kind: 0, Attr: c.LHS()[0], TIDs: []int{0}}),
		"kind 2":               vio(2, shardVioJSON{Row: 0, Kind: 2, Attr: str, TIDs: []int{0, 1}}),
		"constant of two":      vio(2, shardVioJSON{Row: 0, Kind: 0, Attr: str, TIDs: []int{0, 1}}),
		"constant of none":     vio(1, shardVioJSON{Row: 0, Kind: 0, Attr: str}),
		"TIDs descending":      vio(2, shardVioJSON{Row: 0, Kind: 1, Attr: str, TIDs: []int{5, 3}}),
		"TIDs repeated":        vio(2, shardVioJSON{Row: 0, Kind: 1, Attr: str, TIDs: []int{3, 3}}),
		"negative TID":         vio(1, shardVioJSON{Row: 0, Kind: 0, Attr: str, TIDs: []int{-1}}),
		"more TIDs than n":     vio(2, shardVioJSON{Row: 0, Kind: 1, Attr: str, TIDs: []int{1, 2, 3}}),
		"empty group": mangle(func(cfds []shardCFDJSON) []shardCFDJSON {
			cfds[0].Groups[0].N, cfds[0].Groups[0].Vios = 0, nil
			return cfds
		}),
		"keys descending": mangle(func(cfds []shardCFDJSON) []shardCFDJSON {
			g := cfds[0].Groups
			g[0], g[1] = g[1], g[0]
			return cfds
		}),
		"key repeated": mangle(func(cfds []shardCFDJSON) []shardCFDJSON {
			cfds[0].Groups[1].Key = cfds[0].Groups[0].Key
			return cfds
		}),
		"key not base64": mangle(func(cfds []shardCFDJSON) []shardCFDJSON { cfds[0].Groups[0].Key = "!"; return cfds }),
		"a CFD short":    mangle(func(cfds []shardCFDJSON) []shardCFDJSON { return cfds[1:] }),
		"not JSON":       reply[:len(reply)/2],
	} {
		if _, err := decodeDetectReply(set, bad); err == nil {
			t.Errorf("decoded a reply with %s", name)
		}
	}

	// Over HTTP the bad reply is a worker error, not a result.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("ETag", `"x-1"`)
		w.Write(issue)
	}))
	defer ts.Close()
	cl := NewShardClient(ts.URL, 5*time.Second)
	if res, err := cl.ShardDetect("cust", "", set); !errors.Is(err, engine.ErrWorker) {
		t.Fatalf("ShardDetect of a reply with attribute 99: %v, %v", res, err)
	}
	// ... and nothing is held for a 304 to hand back.
	if len(cl.held) != 0 {
		t.Fatalf("the client holds %v", cl.held)
	}
}

// FuzzShardDetectDecode feeds untrusted bytes to both ends of phase 1:
// the worker's decoder of the request (and of the CFD text it may
// carry), which answers 200 or a 4xx, and the client's of the reply.
// Whatever the client accepts must merge, and its merge must encode,
// without a panic.
func FuzzShardDetectDecode(f *testing.F) {
	h, set, request, reply := detectFixture(f)
	f.Add(request, reply)
	f.Add(request[:len(request)/2], reply[:len(reply)/2])
	f.Add([]byte(`{"dataset":"cust","cfds":"cfd x: cust([CC] -> [CT])"}`),
		[]byte(`{"cfds":[{"groups":[{"key":"AQ==","n":1,"vios":[{"row":0,"kind":0,"attr":99,"tids":[0]}]}]},{"groups":[]},{"groups":[]},{"groups":[]},{"groups":[]}]}`))
	f.Add([]byte(`{"dataset":"cust","cfds":"cust([CC='44'] -> [CT='"}`),
		[]byte(`{"cfds":[{"groups":[{"key":"AQ==","n":2,"vios":[{"row":0,"kind":1,"attr":5,"tids":[1,0]}]},{"key":"AA==","n":1}]},{},{},{},{}]}`))
	f.Fuzz(func(t *testing.T, request, reply []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", shardDetectPath, bytes.NewReader(request)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("worker answered %d to %q", rec.Code, request)
		}
		res, err := decodeDetectReply(set, reply)
		if err != nil {
			return
		}
		// The reply against itself: every group a boundary group whose
		// other side is absent, so the merge walks each local list.
		none := func([]cfd.GroupQuery) ([][][]cfd.BoundaryGroup, error) { return make([][][]cfd.BoundaryGroup, 2), nil }
		vios, _, err := cfd.MergeShardsBatch(set, []int{0, 1 << 20}, [][]cfd.ShardResult{res, res}, none)
		if err != nil {
			t.Fatalf("an accepted reply does not merge: %v", err)
		}
		encodeViolations(map[string]any{"count": len(vios)}, set.Schema(), vios, vios)
	})
}
