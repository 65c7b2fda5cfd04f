package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/relation"
)

// api is a client of one daemon's (or coordinator's) public HTTP API.
// Each load client owns one, so it keeps one connection.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	return &api{base: base, hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

// call sends one request and decodes the reply into out unless out is
// nil, in which case the body is read and dropped. A status of 400 or
// above is an error.
func (a *api) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type attrJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type schemaJSON struct {
	Name  string     `json:"name"`
	Attrs []attrJSON `json:"attrs"`
}

func schemaOf(s *relation.Schema) schemaJSON {
	out := schemaJSON{Name: s.Name()}
	for _, a := range s.Attrs() {
		out.Attrs = append(out.Attrs, attrJSON{Name: a.Name, Kind: a.Kind.String()})
	}
	return out
}

// request is one POST of a dataset's upload; name labels its span in a
// traced pass.
type request struct {
	name, path string
	body       any
}

// uploadRequests are the requests that register d from its CSV text
// and install its constraints, in order.
func uploadRequests(d *dataset) []request {
	reqs := []request{{"upload", "/v1/datasets", map[string]any{
		"name": d.name, "schema": schemaOf(d.rel.Schema()), "csv": d.csv,
	}}}
	if d.cfds != "" {
		reqs = append(reqs, request{"constraints", "/v1/constraints", map[string]any{"dataset": d.name, "cfds": d.cfds}})
	}
	if d.dcs != "" {
		reqs = append(reqs, request{"dcs", "/v1/dcs", map[string]any{"dataset": d.name, "dcs": d.dcs}})
	}
	return reqs
}

func (a *api) upload(d *dataset) error {
	for _, r := range uploadRequests(d) {
		if err := a.call("POST", r.path, r.body, nil); err != nil {
			return err
		}
	}
	return nil
}

// discoverBody is the discovery request every workload sends.
func discoverBody(dataset string) map[string]any {
	return map[string]any{"dataset": dataset, "max_lhs": 2, "min_support": 50}
}

// violationJSON is one entry of the violation list the daemon serves.
type violationJSON struct {
	CFD  string `json:"cfd"`
	Row  int    `json:"row"`
	Kind string `json:"kind"`
	Attr string `json:"attr"`
	TIDs []int  `json:"tids"`
}

type detectReply struct {
	Count      int             `json:"count"`
	Violations []violationJSON `json:"violations"`
}

// digest is a violation list reduced to what the checks compare: its
// length and a hash of its sorted (cfd, row, kind, attr, tids) entries.
type digest struct {
	count int
	hash  string
}

func digestOf(keys []string) digest {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{'\n'})
	}
	return digest{count: len(keys), hash: hex.EncodeToString(h.Sum(nil)[:8])}
}

func (r *detectReply) digest() digest {
	keys := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		keys[i] = fmt.Sprint(v.CFD, "|", v.Row, "|", v.Kind, "|", v.Attr, "|", v.TIDs)
	}
	return digestOf(keys)
}

// referenceDigest runs single-process detection in this program and
// digests the result the way a daemon's reply is digested.
func referenceDigest(rel *relation.Relation, cfds string) (digest, error) {
	set, err := cfd.ParseSet(cfds, rel.Schema())
	if err != nil {
		return digest{}, err
	}
	vs, err := cfd.NewDetector(set).Detect(rel)
	if err != nil {
		return digest{}, err
	}
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = fmt.Sprint(v.CFD.Name(), "|", v.Row, "|", v.Kind, "|", rel.Schema().Attr(v.Attr).Name, "|", v.TIDs)
	}
	return digestOf(keys), nil
}

func (a *api) detect(name string) (digest, error) {
	var r detectReply
	err := a.call("POST", "/v1/detect", map[string]any{"dataset": name}, &r)
	return r.digest(), err
}

func (a *api) violations(name string) (digest, error) {
	var r detectReply
	err := a.call("GET", "/v1/datasets/"+name+"/violations", nil, &r)
	return r.digest(), err
}

// datasetInfo is the part of GET /v1/datasets/{name} the benchmark
// reads. A coordinator's reply has no index_cache; the fields stay 0.
type datasetInfo struct {
	Tuples     int                 `json:"tuples"`
	IndexCache relation.CacheStats `json:"index_cache"`
	Resident   int64               `json:"index_resident_bytes"`
}

func (a *api) info(name string) (datasetInfo, error) {
	var d datasetInfo
	err := a.call("GET", "/v1/datasets/"+name, nil, &d)
	return d, err
}

// healthy reports whether /healthz answers 200.
func (a *api) healthy() bool {
	resp, err := a.hc.Get(a.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// do runs one op of a service stream against the cust and emp
// datasets and returns the rows it had acknowledged.
func (a *api) do(o op) (rows int, err error) {
	switch o.class {
	case "read":
		err = a.call("GET", "/v1/datasets/cust/violations", nil, nil)
	case "detect":
		err = a.call("POST", "/v1/detect", map[string]any{"dataset": "cust"}, nil)
	case "append":
		err = a.call("POST", "/v1/repair/incremental", map[string]any{"dataset": "cust", "tuples": o.rows}, nil)
		rows = len(o.rows)
	case "dc":
		err = a.call("POST", "/v1/dc/detect", map[string]any{"dataset": "emp"}, nil)
	case "edit":
		err = a.call("POST", "/v1/edit", map[string]any{"dataset": "cust", "tid": o.tid, "attr": "NM", "value": o.value}, nil)
	case "discover":
		err = a.call("POST", "/v1/discover", discoverBody("cust"), nil)
	default:
		err = fmt.Errorf("unknown op class %q", o.class)
	}
	if err != nil {
		rows = 0
	}
	return rows, err
}
