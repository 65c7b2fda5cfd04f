package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

// RetryPolicy bounds the client's retries of IDEMPOTENT worker calls
// (shard detect, boundary-group fetch, shard DC detect).
// Register, append, install and drop are never retried: their effects
// are not idempotent (a duplicated append double-ingests), so they
// stay at-most-once and the coordinator's durability layer owns their
// recovery.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retries).
	MaxAttempts int
	// BaseBackoff is the first retry's delay; each further retry
	// doubles it, capped at MaxBackoff, with full jitter (a uniform
	// draw from [0, backoff)) so a fleet of retrying coordinators
	// doesn't stampede a recovering worker.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed seeds the jitter RNG (0 = fixed default), keeping
	// fault-injection tests deterministic.
	Seed int64
}

// DefaultRetryPolicy is the daemon's cluster-mode default: 3 attempts,
// 50ms base, 1s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second}
}

// HTTPShardClient implements engine.ShardClient over a worker's HTTP
// surface. All failures — transport errors and non-2xx responses alike
// — come back tagged engine.ErrWorker so the coordinator's handlers
// answer 502; timeouts and 5xx replies additionally carry
// engine.ErrWorkerTimeout / engine.ErrWorkerUpstream so per-worker
// stats and degraded-detect reports can label the cause.
//
// Phase-1 replies (shard detect of the installed set, shard DC detect)
// are conditional: the client holds the last decoded reply per dataset
// and route with the worker's ETag, sends the tag back as
// If-None-Match, and on a 304 returns the reply it holds — the same
// value, shared and read-only, which is how the coordinator tells that
// nothing changed on that worker.
type HTTPShardClient struct {
	base string
	hc   *http.Client

	// rngMu guards policy and rng: SetRetryPolicy may race request
	// goroutines reading them in callRetry/backoff.
	rngMu       sync.Mutex
	policy      RetryPolicy
	rng         *rand.Rand
	retries     atomic.Uint64
	notModified atomic.Uint64

	heldMu sync.Mutex
	held   map[heldKey]heldReply
}

// heldKey names one conditional route of one dataset.
type heldKey struct{ dataset, path string }

// heldReply is a decoded phase-1 reply and the ETag it came with.
type heldReply struct {
	etag string
	// set is the coordinator set a detect reply's violations point into
	// (nil for DC replies): the reply is only good for that set.
	set   *cfd.Set
	reply any // []cfd.ShardResult or map[string]dc.ShardResult
}

// Routes of the conditional phase-1 calls.
const (
	shardDetectPath = "/v1/shard/detect"
	shardDCPath     = "/v1/shard/dc"
)

// NewShardClient builds a client for the worker at baseURL (e.g.
// "http://127.0.0.1:8091"). timeout bounds each RPC attempt (0 = no
// timeout). Retries are off until SetRetryPolicy.
func NewShardClient(baseURL string, timeout time.Duration) *HTTPShardClient {
	return &HTTPShardClient{
		base:   strings.TrimRight(baseURL, "/"),
		hc:     &http.Client{Timeout: timeout},
		policy: RetryPolicy{MaxAttempts: 1},
		held:   map[heldKey]heldReply{},
	}
}

// SetRetryPolicy enables bounded retries of idempotent calls.
func (c *HTTPShardClient) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	c.rngMu.Lock()
	c.policy = p
	c.rng = rand.New(rand.NewSource(seed))
	c.rngMu.Unlock()
}

// getPolicy snapshots the retry policy under the same lock
// SetRetryPolicy writes it, so a policy change mid-traffic is safe.
func (c *HTTPShardClient) getPolicy() RetryPolicy {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.policy
}

// URL returns the worker's base URL.
func (c *HTTPShardClient) URL() string { return c.base }

// Retries reports the cumulative retry count — the
// engine.RetryReporter hook /v1/stats surfaces per worker.
func (c *HTTPShardClient) Retries() uint64 { return c.retries.Load() }

// NotModified reports how many phase-1 calls the worker answered 304 —
// the engine.NotModifiedReporter hook /v1/stats surfaces per worker.
func (c *HTTPShardClient) NotModified() uint64 { return c.notModified.Load() }

func (c *HTTPShardClient) fail(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %w: %s: %v", engine.ErrWorker, engine.ErrWorkerTimeout, c.base, err)
	}
	return fmt.Errorf("%w: %s: %v", engine.ErrWorker, c.base, err)
}

// workerStatusError carries a worker's HTTP status through the
// coordinator so deliberate 4xx rejections relay as-is.
type workerStatusError struct {
	Status int
	Msg    string
}

func (e *workerStatusError) Error() string { return e.Msg }

// retryable reports whether err is worth retrying on an idempotent
// call: any transport fault (including timeouts — the worker may just
// be slow under load) and any 5xx reply (the worker is up but failing,
// e.g. mid-recovery answering 503). Deliberate 4xx rejections are
// final.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var wse *workerStatusError
	if errors.As(err, &wse) {
		return wse.Status >= 500
	}
	return true
}

// backoff returns the jittered delay before retry attempt (1-based)
// under the caller's policy snapshot.
func (c *HTTPShardClient) backoff(p RetryPolicy, attempt int) time.Duration {
	d := p.BaseBackoff << (attempt - 1)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return time.Duration(c.rng.Int63n(int64(d)) + 1)
}

// callRetry is the idempotent-call path, a POST: bounded retries with
// jittered exponential backoff on transport faults and 5xx replies.
// inm and the results are send's.
func (c *HTTPShardClient) callRetry(path string, body any, inm string, out any) (etag string, notModified bool, err error) {
	p := c.getPolicy()
	for attempt := 1; ; attempt++ {
		etag, notModified, err = c.send(http.MethodPost, path, body, inm, out)
		if err == nil || attempt >= p.MaxAttempts || !retryable(err) {
			return etag, notModified, err
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(p, attempt))
	}
}

// call POSTs (or DELETEs) a JSON body once and decodes the JSON
// response into out (out nil discards it). Non-2xx responses surface
// the worker's structured error message.
func (c *HTTPShardClient) call(method, path string, body, out any) error {
	_, _, err := c.send(method, path, body, "", out)
	return err
}

// send is call made conditional: a non-empty inm goes out as
// If-None-Match, and a 304 carrying that tag back reports notModified
// and leaves out untouched. A 304 to anything else — no tag sent, or
// another tag — is the worker misbehaving. etag is the reply's ETag.
func (c *HTTPShardClient) send(method, path string, body any, inm string, out any) (etag string, notModified bool, err error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return "", false, c.fail(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return "", false, c.fail(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", false, c.fail(err)
	}
	defer resp.Body.Close()
	etag = resp.Header.Get("ETag")
	if resp.StatusCode == http.StatusNotModified {
		if inm == "" || etag != inm {
			return "", false, c.fail(fmt.Errorf("%s %s: 304 with tag %q to a request for %q", method, path, etag, inm))
		}
		return etag, true, nil
	}
	if resp.StatusCode >= 300 {
		msg := fmt.Sprintf("%s %s: status %d", method, path, resp.StatusCode)
		var er errorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			msg = fmt.Sprintf("%s %s: %s", method, path, er.Error)
		}
		// Keep the worker's status visible (workerStatusError) so the
		// coordinator relays a deliberate 4xx — e.g. a repair conflict —
		// instead of reporting the worker broken with 502; tag 5xx with
		// the upstream-failure cause for stats.
		wse := &workerStatusError{Status: resp.StatusCode, Msg: msg}
		if resp.StatusCode >= 500 {
			return "", false, fmt.Errorf("%w: %w: %s: %w", engine.ErrWorker, engine.ErrWorkerUpstream, c.base, wse)
		}
		return "", false, fmt.Errorf("%w: %s: %w", engine.ErrWorker, c.base, wse)
	}
	if out == nil {
		return etag, false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return "", false, c.fail(err)
	}
	return etag, false, nil
}

// conditional is a phase-1 call for the reply held for (dataset, path):
// it sends the held reply's tag when that reply was decoded against
// set, hands the held reply back on a 304, and otherwise decodes the
// new body and holds it under the tag it came with.
func conditional[R, T any](c *HTTPShardClient, dataset, path string, body any, set *cfd.Set, decode func(*R) (T, error)) (T, error) {
	key := heldKey{dataset, path}
	c.heldMu.Lock()
	h, ok := c.held[key]
	c.heldMu.Unlock()
	inm := ""
	if ok && h.set == set {
		inm = h.etag
	}
	var resp R
	var zero T
	etag, notModified, err := c.callRetry(path, body, inm, &resp)
	if err != nil {
		return zero, err
	}
	if notModified {
		c.notModified.Add(1)
		return h.reply.(T), nil
	}
	out, err := decode(&resp)
	if err != nil {
		return zero, c.fail(err)
	}
	if etag != "" {
		c.heldMu.Lock()
		c.held[key] = heldReply{etag: etag, set: set, reply: out}
		c.heldMu.Unlock()
	}
	return out, nil
}

// Register ships a TID-range slice as exact encoded tuples.
func (c *HTTPShardClient) Register(dataset string, schema *relation.Schema, tuples []relation.Tuple) error {
	sj := schemaJSON{Name: schema.Name(), Attrs: make([]attrJSON, schema.Arity())}
	for i := 0; i < schema.Arity(); i++ {
		a := schema.Attr(i)
		sj.Attrs[i] = attrJSON{Name: a.Name, Kind: a.Kind.String()}
	}
	rows := make([]string, len(tuples))
	var buf []byte
	for i, t := range tuples {
		buf = relation.EncodeTuple(buf[:0], t)
		rows[i] = base64.StdEncoding.EncodeToString(buf)
	}
	return c.call(http.MethodPost, "/v1/shard/register",
		shardRegisterRequest{Name: dataset, Schema: sj, Rows: rows}, nil)
}

// Drop removes the worker's slice; an unknown dataset is not an error.
// The replies held for it go first.
func (c *HTTPShardClient) Drop(dataset string) error {
	c.heldMu.Lock()
	delete(c.held, heldKey{dataset, shardDetectPath})
	delete(c.held, heldKey{dataset, shardDCPath})
	c.heldMu.Unlock()
	err := c.call(http.MethodDelete, "/v1/datasets/"+dataset, nil, nil)
	if err != nil && strings.Contains(err.Error(), "unknown dataset") {
		return nil
	}
	return err
}

// InstallConstraints installs CFD text on the worker's slice.
func (c *HTTPShardClient) InstallConstraints(dataset, cfds string) error {
	return c.call(http.MethodPost, "/v1/constraints",
		constraintsRequest{Dataset: dataset, CFDs: cfds}, nil)
}

// InstallDCs installs denial-constraint text on the worker's slice.
func (c *HTTPShardClient) InstallDCs(dataset, dcs string) error {
	return c.call(http.MethodPost, "/v1/dcs", dcsRequest{Dataset: dataset, DCs: dcs}, nil)
}

// ShardDetect runs shard-local detection and rebuilds the results
// against the coordinator's compiled set (same text, same order), so
// violation CFD pointers match what cfd.MergeShards emits. A detect of
// the installed set is conditional: an unchanged worker answers 304 and
// the reply held from its last answer comes back, shared and read-only.
func (c *HTTPShardClient) ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error) {
	body := shardDetectRequest{Dataset: dataset, CFDs: cfds}
	decode := func(resp *shardDetectReply) ([]cfd.ShardResult, error) { return decodeShardDetect(set, resp.CFDs) }
	if cfds == "" {
		return conditional(c, dataset, shardDetectPath, body, set, decode)
	}
	// A candidate set is detected once; there is nothing to hold.
	var resp shardDetectReply
	if _, _, err := c.callRetry(shardDetectPath, body, "", &resp); err != nil {
		return nil, err
	}
	out, err := decode(&resp)
	if err != nil {
		return nil, c.fail(err)
	}
	return out, nil
}

type shardDetectReply struct {
	CFDs []shardCFDJSON `json:"cfds"`
}

// decodeShardDetect checks a worker's phase-1 reply against set before
// anything merges or holds it — a group stream per CFD with keys
// strictly ascending (the merge is a k-way merge of sorted streams),
// non-empty groups, and only violations the CFD can emit — and rebuilds
// it against set's CFDs.
func decodeShardDetect(set *cfd.Set, resp []shardCFDJSON) ([]cfd.ShardResult, error) {
	all := set.All()
	if len(resp) != len(all) {
		return nil, fmt.Errorf("shard detect returned %d CFD results, set has %d", len(resp), len(all))
	}
	out := make([]cfd.ShardResult, len(resp))
	for ci, cj := range resp {
		c, rhs := all[ci], all[ci].RHS()
		groups := make([]cfd.ShardGroup, len(cj.Groups))
		for gi, gj := range cj.Groups {
			raw, err := base64.StdEncoding.DecodeString(gj.Key)
			if err != nil {
				return nil, fmt.Errorf("%s group %d key: %w", c.Name(), gi, err)
			}
			if gi > 0 && string(raw) <= groups[gi-1].Key {
				return nil, fmt.Errorf("%s group %d: keys not strictly ascending", c.Name(), gi)
			}
			if gj.N < 1 {
				return nil, fmt.Errorf("%s group %d: %d members", c.Name(), gi, gj.N)
			}
			g := cfd.ShardGroup{Key: string(raw), N: gj.N}
			for _, vj := range gj.Vios {
				if err := checkShardVio(c, rhs, gj.N, vj); err != nil {
					return nil, fmt.Errorf("%s group %d: %w", c.Name(), gi, err)
				}
				g.Vios = append(g.Vios, cfd.Violation{
					CFD:  c,
					Row:  vj.Row,
					Kind: cfd.ViolationKind(vj.Kind),
					Attr: vj.Attr,
					TIDs: vj.TIDs,
				})
			}
			groups[gi] = g
		}
		out[ci] = cfd.ShardResult{Groups: groups}
	}
	return out, nil
}

// checkShardVio rejects a violation c cannot have in a group of n: a
// tableau row or attribute c does not have, an unknown kind, a constant
// violation of other than one tuple, TIDs out of order or more than the
// group holds.
func checkShardVio(c *cfd.CFD, rhs []int, n int, v shardVioJSON) error {
	switch {
	case v.Row < 0 || v.Row >= c.Rows():
		return fmt.Errorf("tableau row %d of %d", v.Row, c.Rows())
	case !slices.Contains(rhs, v.Attr):
		return fmt.Errorf("attribute %d is not on the right-hand side", v.Attr)
	case v.Kind != int(cfd.ConstViolation) && v.Kind != int(cfd.VarViolation):
		return fmt.Errorf("violation kind %d", v.Kind)
	case v.Kind == int(cfd.ConstViolation) && len(v.TIDs) != 1:
		return fmt.Errorf("constant violation of %d tuples", len(v.TIDs))
	case len(v.TIDs) == 0 || len(v.TIDs) > n:
		return fmt.Errorf("violation of %d tuples in a group of %d", len(v.TIDs), n)
	}
	for i, tid := range v.TIDs {
		if tid < 0 || i > 0 && tid <= v.TIDs[i-1] {
			return fmt.Errorf("TIDs %v not ascending from 0", v.TIDs)
		}
	}
	return nil
}

// ShardGroups is ShardGroupsBatch of one summary query.
func (c *HTTPShardClient) ShardGroups(dataset string, partAttrs, valAttrs []int, keys []string) ([]cfd.BoundaryGroup, error) {
	q := cfd.GroupQuery{PartAttrs: partAttrs, ValAttrs: valAttrs}
	for _, k := range keys {
		q.Keys = append(q.Keys, []byte(k))
	}
	sides, err := c.ShardGroupsBatch(dataset, []cfd.GroupQuery{q})
	if err != nil {
		return nil, err
	}
	return sides[0], nil
}

// ShardGroupsBatch fetches the worker's side of every query's groups
// in one round trip.
func (c *HTTPShardClient) ShardGroupsBatch(dataset string, queries []cfd.GroupQuery) ([][]cfd.BoundaryGroup, error) {
	var resp struct {
		Queries [][]shardSideJSON `json:"queries"`
	}
	if _, _, err := c.callRetry("/v1/shard/groups",
		shardGroupsRequest{Dataset: dataset, Queries: queries}, "", &resp); err != nil {
		return nil, err
	}
	out, err := decodeShardSides(queries, resp.Queries)
	if err != nil {
		return nil, c.fail(err)
	}
	return out, nil
}

// decodeShardSides checks a worker's boundary reply against the queries
// it answers — a list per query, an entry per key, one row per TID for
// a Rows query and one in all otherwise — and rebuilds the groups
// (local TIDs). Tuples come back indexed by attribute position, long
// enough for the query's largest attribute.
func decodeShardSides(queries []cfd.GroupQuery, resp [][]shardSideJSON) ([][]cfd.BoundaryGroup, error) {
	if len(resp) != len(queries) {
		return nil, fmt.Errorf("shard groups answered %d queries, asked %d", len(resp), len(queries))
	}
	out := make([][]cfd.BoundaryGroup, len(queries))
	for qi, q := range queries {
		if len(resp[qi]) != len(q.Keys) {
			return nil, fmt.Errorf("shard groups query %d: %d entries for %d keys", qi, len(resp[qi]), len(q.Keys))
		}
		arity := 0
		for _, a := range q.ValAttrs {
			arity = max(arity, a+1)
		}
		out[qi] = make([]cfd.BoundaryGroup, len(q.Keys))
		for i, sj := range resp[qi] {
			if len(sj.TIDs) == 0 {
				continue
			}
			want := 1
			if q.Rows {
				want = len(sj.TIDs)
			}
			if len(sj.Rows) != want {
				return nil, fmt.Errorf("shard groups query %d group %d: %d rows for %d TIDs, want %d", qi, i, len(sj.Rows), len(sj.TIDs), want)
			}
			bg := cfd.BoundaryGroup{TIDs: sj.TIDs, Rows: make([]relation.Tuple, len(sj.Rows)), Differs: sj.Differs}
			for m, raw := range sj.Rows {
				row := make(relation.Tuple, arity)
				for _, a := range q.ValAttrs {
					v, n, err := relation.DecodeValue(raw)
					if err != nil {
						return nil, fmt.Errorf("shard groups query %d group %d row %d attr %d: %w", qi, i, m, a, err)
					}
					row[a], raw = v, raw[n:]
				}
				if len(raw) != 0 {
					return nil, fmt.Errorf("shard groups query %d group %d row %d: %d trailing bytes", qi, i, m, len(raw))
				}
				bg.Rows[m] = row
			}
			out[qi][i] = bg
		}
	}
	return out, nil
}

// ShardDCs runs shard-local DC detection, keyed by DC name —
// conditionally, like ShardDetect of the installed set.
func (c *HTTPShardClient) ShardDCs(dataset string) (map[string]dc.ShardResult, error) {
	type reply struct {
		DCs []shardDCJSON `json:"dcs"`
	}
	return conditional(c, dataset, shardDCPath, shardDCRequest{Dataset: dataset}, nil, func(resp *reply) (map[string]dc.ShardResult, error) {
		out := make(map[string]dc.ShardResult, len(resp.DCs))
		for _, dj := range resp.DCs {
			var res dc.ShardResult
			for _, v := range dj.Vios {
				res.Vios = append(res.Vios, dc.Violation{T: v.T, U: v.U})
			}
			for _, k := range dj.Keys {
				raw, err := base64.StdEncoding.DecodeString(k)
				if err != nil {
					return nil, fmt.Errorf("dc group key: %w", err)
				}
				res.Keys = append(res.Keys, string(raw))
			}
			out[dj.Name] = res
		}
		return out, nil
	})
}

// Append routes raw tuple fields to the worker's incremental repair
// path. Repair conflicts (HTTP 409) surface as errors.
func (c *HTTPShardClient) Append(dataset string, tuples [][]string) (int, error) {
	var resp struct {
		Appended int `json:"appended"`
	}
	if err := c.call(http.MethodPost, "/v1/repair/incremental",
		incrementalRequest{Dataset: dataset, Tuples: tuples}, &resp); err != nil {
		return 0, err
	}
	return resp.Appended, nil
}

// Discover profiles the worker's slice.
func (c *HTTPShardClient) Discover(dataset string, minSupport, maxLHS int) ([]string, error) {
	var resp struct {
		CFDs []string `json:"cfds"`
	}
	if err := c.call(http.MethodPost, "/v1/discover",
		discoverRequest{Dataset: dataset, MinSupport: minSupport, MaxLHS: maxLHS}, &resp); err != nil {
		return nil, err
	}
	return resp.CFDs, nil
}
