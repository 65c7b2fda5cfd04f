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
type HTTPShardClient struct {
	base string
	hc   *http.Client

	// rngMu guards policy and rng: SetRetryPolicy may race request
	// goroutines reading them in callRetry/backoff.
	rngMu   sync.Mutex
	policy  RetryPolicy
	rng     *rand.Rand
	retries atomic.Uint64
}

// NewShardClient builds a client for the worker at baseURL (e.g.
// "http://127.0.0.1:8091"). timeout bounds each RPC attempt (0 = no
// timeout). Retries are off until SetRetryPolicy.
func NewShardClient(baseURL string, timeout time.Duration) *HTTPShardClient {
	return &HTTPShardClient{
		base:   strings.TrimRight(baseURL, "/"),
		hc:     &http.Client{Timeout: timeout},
		policy: RetryPolicy{MaxAttempts: 1},
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

// callRetry is the idempotent-call path: bounded retries with jittered
// exponential backoff on transport faults and 5xx replies.
func (c *HTTPShardClient) callRetry(method, path string, body, out any) error {
	p := c.getPolicy()
	var err error
	for attempt := 1; ; attempt++ {
		err = c.call(method, path, body, out)
		if err == nil || attempt >= p.MaxAttempts || !retryable(err) {
			return err
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(p, attempt))
	}
}

// call POSTs (or DELETEs) a JSON body once and decodes the JSON
// response into out (out nil discards it). Non-2xx responses surface
// the worker's structured error message.
func (c *HTTPShardClient) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return c.fail(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return c.fail(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
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
			return fmt.Errorf("%w: %w: %s: %w", engine.ErrWorker, engine.ErrWorkerUpstream, c.base, wse)
		}
		return fmt.Errorf("%w: %s: %w", engine.ErrWorker, c.base, wse)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return c.fail(err)
	}
	return nil
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
func (c *HTTPShardClient) Drop(dataset string) error {
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
// violation CFD pointers match what cfd.MergeShards emits.
func (c *HTTPShardClient) ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error) {
	var resp struct {
		CFDs []shardCFDJSON `json:"cfds"`
	}
	if err := c.callRetry(http.MethodPost, "/v1/shard/detect",
		shardDetectRequest{Dataset: dataset, CFDs: cfds}, &resp); err != nil {
		return nil, err
	}
	all := set.All()
	if len(resp.CFDs) != len(all) {
		return nil, c.fail(fmt.Errorf("shard detect returned %d CFD results, set has %d", len(resp.CFDs), len(all)))
	}
	out := make([]cfd.ShardResult, len(resp.CFDs))
	for ci, cj := range resp.CFDs {
		groups := make([]cfd.ShardGroup, len(cj.Groups))
		for gi, gj := range cj.Groups {
			raw, err := base64.StdEncoding.DecodeString(gj.Key)
			if err != nil {
				return nil, c.fail(fmt.Errorf("group key: %w", err))
			}
			g := cfd.ShardGroup{Key: string(raw), N: gj.N}
			for _, vj := range gj.Vios {
				g.Vios = append(g.Vios, cfd.Violation{
					CFD:  all[ci],
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
	if err := c.callRetry(http.MethodPost, "/v1/shard/groups",
		shardGroupsRequest{Dataset: dataset, Queries: queries}, &resp); err != nil {
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

// ShardDCs runs shard-local DC detection, keyed by DC name.
func (c *HTTPShardClient) ShardDCs(dataset string) (map[string]dc.ShardResult, error) {
	var resp struct {
		DCs []shardDCJSON `json:"dcs"`
	}
	if err := c.callRetry(http.MethodPost, "/v1/shard/dc", shardDCRequest{Dataset: dataset}, &resp); err != nil {
		return nil, err
	}
	out := make(map[string]dc.ShardResult, len(resp.DCs))
	for _, dj := range resp.DCs {
		var res dc.ShardResult
		for _, v := range dj.Vios {
			res.Vios = append(res.Vios, dc.Violation{T: v.T, U: v.U})
		}
		for _, k := range dj.Keys {
			raw, err := base64.StdEncoding.DecodeString(k)
			if err != nil {
				return nil, c.fail(fmt.Errorf("dc group key: %w", err))
			}
			res.Keys = append(res.Keys, string(raw))
		}
		out[dj.Name] = res
	}
	return out, nil
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
