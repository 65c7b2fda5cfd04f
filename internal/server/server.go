// Package server exposes the Semandaq engine over HTTP/JSON: the
// long-running service face of the §5 demo system. One process keeps
// datasets loaded and constraint sets compiled (the engine registry),
// and any number of clients drive detect → repair → discover against
// them concurrently. cmd/semandaqd wires this handler to a listener.
//
// API (all request/response bodies are JSON):
//
//	GET    /healthz                        liveness probe
//	POST   /v1/datasets                    register a dataset (inline CSV or generator)
//	GET    /v1/datasets                    list datasets
//	GET    /v1/datasets/{name}             dataset info
//	DELETE /v1/datasets/{name}             drop a dataset
//	GET    /v1/datasets/{name}/violations  current (cached) violations; ETag / If-None-Match → 304
//	POST   /v1/constraints                 compile + install a CFD set
//	POST   /v1/detect                      run parallel violation detection
//	POST   /v1/repair                      compute a candidate repair (optionally accept)
//	POST   /v1/repair/incremental          append tuples, repair only them (repair.Inc)
//	POST   /v1/discover                    profile the data for CFDs
//	POST   /v1/edit                        set/confirm a cell (interactive loop)
//	POST   /v1/dcs                         compile + install a denial-constraint set
//	GET    /v1/datasets/{name}/dcs         list installed denial constraints
//	POST   /v1/dc/detect                   detect DC violations (rank-sweep over PLIs)
//	POST   /v1/dc/relax                    propose relaxations of a violated DC
//	GET    /v1/stats                       per-endpoint request counters + latency, violation-body cache hits
//	POST   /v1/shard/*                     worker half of scatter-gather detection (shard.go)
//
// There is one Server, one route table and one handler per route. New
// serves a local engine, NewCoordinator a worker fleet; the handlers
// reach either as an engine.Registry of engine.Dataset values, and the
// keys only a cluster answers with (residual, workers, degraded,
// failed_workers, shards) come from the fields only it fills in the
// results. What differs between the modes beyond that: /v1/repair,
// /v1/edit and /v1/dc/relax need engine sessions and answer 501 over a
// coordinator, /v1/shard/* is mounted only beside a local engine, and
// /healthz and /v1/stats list a coordinator's workers.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/engine"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
)

// maxBodyBytes bounds request bodies (inline CSV uploads included).
const maxBodyBytes = 64 << 20

// Server is the HTTP front end over a local engine or a cluster
// coordinator.
type Server struct {
	reg engine.Registry
	// eng is the local engine behind reg, nil over a coordinator: the
	// capability the session-level handlers (localOnly, shard.go) need.
	eng   *engine.Engine
	mux   *http.ServeMux
	stats *serverStats
	// bodies are the encoded GET …/violations responses (violations.go).
	bodies bodyCache

	// recovering gates the API while WAL replay runs at startup: every
	// route answers 503 (counted in /v1/stats under "(recovering)")
	// except /healthz, which answers 503 {"status":"recovering"} so
	// orchestration can tell "replaying" from "dead".
	recovering atomic.Bool
}

// SetRecovering flips the startup recovery gate.
func (s *Server) SetRecovering(v bool) { s.recovering.Store(v) }

// New builds the handler around a local engine. Every such server also
// mounts the worker half of the shard protocol (shard.go).
func New(eng *engine.Engine) *Server {
	s := newServer(eng, eng)
	s.mux.HandleFunc("POST /v1/shard/register", s.handleShardRegister)
	s.mux.HandleFunc("POST /v1/shard/detect", s.handleShardDetect)
	s.mux.HandleFunc("POST /v1/shard/groups", s.handleShardGroups)
	s.mux.HandleFunc("POST /v1/shard/dc", s.handleShardDC)
	return s
}

// NewCoordinator builds the handler over a worker fleet: the same
// public surface, served by fanning requests out through the
// coordinator and merging shard results (byte-identical to
// single-process detection; see internal/cfd/scatter.go).
func NewCoordinator(coord *engine.Coordinator) *Server {
	return newServer(coord, nil)
}

// newServer mounts the public route table — the one place a route is
// added (TestRouteParity walks it in both modes).
func newServer(reg engine.Registry, eng *engine.Engine) *Server {
	s := &Server{reg: reg, eng: eng, mux: http.NewServeMux(), stats: newServerStats()}
	s.bodies.byName = map[string]*violationBody{}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegister)
	s.mux.HandleFunc("GET /v1/datasets", s.handleList)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDrop)
	s.mux.HandleFunc("GET /v1/datasets/{name}/violations", s.handleViolations)
	s.mux.HandleFunc("POST /v1/constraints", s.handleConstraints)
	s.mux.HandleFunc("POST /v1/detect", s.handleDetect)
	s.mux.HandleFunc("POST /v1/repair", s.localOnly(s.handleRepair))
	s.mux.HandleFunc("POST /v1/repair/incremental", s.handleRepairIncremental)
	s.mux.HandleFunc("POST /v1/discover", s.handleDiscover)
	s.mux.HandleFunc("POST /v1/edit", s.localOnly(s.handleEdit))
	s.mux.HandleFunc("POST /v1/dcs", s.handleDCs)
	s.mux.HandleFunc("GET /v1/datasets/{name}/dcs", s.handleDCList)
	s.mux.HandleFunc("POST /v1/dc/detect", s.handleDCDetect)
	s.mux.HandleFunc("POST /v1/dc/relax", s.localOnly(s.handleDCRelax))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// localOnly guards a handler that needs whole-dataset access to engine
// sessions — batch repair, cell edits, DC relaxation. A backend that
// holds no tuple data answers 501 rather than silently computing a
// shard-incoherent result.
func (s *Server) localOnly(h http.HandlerFunc) http.HandlerFunc {
	if s.eng != nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("%s is not available in cluster mode; run a single-process semandaqd for whole-dataset repair and edits", r.URL.Path))
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		serveRecovering(s.stats, w, r)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	serveInstrumented(s.mux, s.stats, w, r)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{
		"endpoints":        s.stats.snapshot(),
		"recovery_rejects": s.stats.recoveryRejects(),
		"violation_bodies": s.bodies.stats(),
	}
	if c, ok := s.reg.(*engine.Coordinator); ok {
		out["workers"] = c.WorkerStats()
	}
	writeJSON(w, http.StatusOK, out)
}

// --- encoding helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// decode reads the JSON request body into v, answering 400 (and
// returning false) when it is malformed or names an unknown field.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// writeEngineError is the one error→status mapping: a worker's
// deliberate 4xx relays as-is, an unreachable or broken worker is 502,
// unknown datasets 404, duplicates 409, the client's own bad data 400,
// and a journal failure is the service's fault (500), never the
// client's; anything else gets the route's fallback.
func writeEngineError(w http.ResponseWriter, err error, fallback int) {
	var wse *workerStatusError
	code := fallback
	switch {
	case errors.As(err, &wse) && wse.Status < 500:
		code = wse.Status
	case errors.Is(err, engine.ErrWorker):
		code = http.StatusBadGateway
	case errors.Is(err, engine.ErrNotDurable):
		code = http.StatusInternalServerError
	case errors.Is(err, engine.ErrUnknownDataset):
		code = http.StatusNotFound
	case errors.Is(err, engine.ErrDuplicate):
		code = http.StatusConflict
	case errors.Is(err, engine.ErrInvalid):
		code = http.StatusBadRequest
	}
	writeError(w, code, err)
}

// dataset resolves the dataset named in a request.
func (s *Server) dataset(w http.ResponseWriter, name string) (engine.Dataset, bool) {
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing dataset name"))
		return nil, false
	}
	ds, ok := s.reg.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return nil, false
	}
	return ds, true
}

// session resolves a dataset to its engine session, for the handlers
// only a local backend mounts.
func (s *Server) session(w http.ResponseWriter, name string) (*engine.Session, bool) {
	ds, ok := s.dataset(w, name)
	if !ok {
		return nil, false
	}
	return ds.(*engine.Session), true
}

// --- JSON shapes ---

type attrJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type datasetJSON struct {
	Name        string `json:"name"`
	Tuples      int    `json:"tuples"`
	Schema      string `json:"schema"`
	Constraints int    `json:"constraints"`
	DCs         int    `json:"dcs"`
	engine.Storage
}

type changeJSON struct {
	TID  int    `json:"tid"`
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
}

type repairJSON struct {
	Changes  []changeJSON `json:"changes"`
	Cost     float64      `json:"cost"`
	Passes   int          `json:"passes"`
	Accepted bool         `json:"accepted"`
}

func repairResponse(schema *relation.Schema, res *repair.Result, accepted bool) repairJSON {
	out := repairJSON{
		Changes:  make([]changeJSON, len(res.Changes)),
		Cost:     res.Cost,
		Passes:   res.Passes,
		Accepted: accepted,
	}
	for i, ch := range res.Changes {
		out.Changes[i] = changeJSON{
			TID:  ch.TID,
			Attr: schema.Attr(ch.Attr).Name,
			From: ch.From.String(),
			To:   ch.To.String(),
		}
	}
	return out
}

func datasetInfo(ds engine.Dataset) datasetJSON {
	return datasetJSON{
		Name:        ds.Name(),
		Tuples:      ds.Len(),
		Schema:      ds.Schema().String(),
		Constraints: ds.Constraints().Len(),
		DCs:         ds.DCs().Len(),
		Storage:     ds.Storage(),
	}
}

// residualJSON reports the boundary-group residual pass of a merge —
// how much of the partition straddled the range cuts.
type residualJSON struct {
	cfd.MergeStats
	BoundaryFraction float64 `json:"boundary_fraction"`
}

func residualInfo(st cfd.MergeStats) residualJSON {
	return residualJSON{st, st.BoundaryFraction()}
}

// mergeInfo adds what a cluster answer says about the merge behind it
// to out; a session's answer has nothing to add. A degraded merge — also
// the re-detect behind a read that missed the cache — is a sound
// partial answer over the surviving shards: flagged, never cached,
// never silently passed off as the global result.
func mergeInfo(out map[string]any, res *engine.DetectResult) {
	if res.Residual != nil {
		out["residual"] = residualInfo(*res.Residual)
	}
	if res.Degraded {
		out["degraded"] = true
		out["failed_workers"] = res.Failed
	}
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{"status": "ok", "datasets": len(s.reg.List())}
	if c, ok := s.reg.(*engine.Coordinator); ok {
		out["workers"] = c.Workers()
	}
	writeJSON(w, http.StatusOK, out)
}

type registerRequest struct {
	Name string `json:"name"`
	// Inline data: a schema plus CSV text whose header matches it.
	Schema *schemaJSON `json:"schema,omitempty"`
	CSV    string      `json:"csv,omitempty"`
	// Built-in workload generator (alternative to schema+csv).
	Generate *generateJSON `json:"generate,omitempty"`
}

type schemaJSON struct {
	Name  string     `json:"name"`
	Attrs []attrJSON `json:"attrs"`
}

// schema compiles the wire form.
func (sj schemaJSON) schema() (*relation.Schema, error) {
	attrs := make([]relation.Attribute, len(sj.Attrs))
	for i, a := range sj.Attrs {
		kind, err := relation.ParseKind(a.Kind)
		if err != nil {
			return nil, err
		}
		attrs[i] = relation.Attribute{Name: a.Name, Kind: kind}
	}
	return relation.NewSchema(sj.Name, attrs...)
}

type generateJSON struct {
	Kind string  `json:"kind"` // cust | hosp | emp
	N    int     `json:"n"`
	Rate float64 `json:"rate"` // noise rate (planted DC violations for emp), 0 = clean
	Seed int64   `json:"seed"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decode(w, r, &req) {
		return
	}
	data, err := buildRelation(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ds, err := s.reg.Add(req.Name, data)
	if err != nil {
		writeEngineError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo(ds))
}

func buildRelation(req registerRequest) (*relation.Relation, error) {
	switch {
	case req.Generate != nil:
		g := req.Generate
		if g.N <= 0 {
			return nil, fmt.Errorf("generate: n must be positive")
		}
		var data *relation.Relation
		switch g.Kind {
		case "cust":
			data = datagen.Cust(g.N, g.Seed)
		case "hosp":
			data = datagen.Hosp(g.N, g.Seed)
		case "emp":
			// The numeric DC workload. Rate plants targeted pay
			// inversions (violations of datagen.EmpDCText) instead of
			// the random cell noise of the string generators.
			return datagen.Emp(g.N, int(g.Rate*float64(g.N)), g.Seed), nil
		default:
			return nil, fmt.Errorf("generate: unknown kind %q (cust, hosp, emp)", g.Kind)
		}
		if g.Rate > 0 {
			data, _ = noise.Dirty(data, noise.Options{Rate: g.Rate, Seed: g.Seed + 1})
		}
		return data, nil
	case req.Schema != nil && req.CSV != "":
		schema, err := req.Schema.schema()
		if err != nil {
			return nil, err
		}
		return relation.ReadCSV(strings.NewReader(req.CSV), schema)
	default:
		return nil, fmt.Errorf("provide either schema+csv or generate")
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.List()
	out := make([]datasetJSON, 0, len(names))
	for _, name := range names {
		if ds, ok := s.reg.Lookup(name); ok {
			out = append(out, datasetInfo(ds))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.dataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, datasetInfo(ds))
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Drop(name) {
		// Drop refuses a drop it cannot journal. The dataset still being
		// there tells that case from a name that was never registered.
		if _, ok := s.reg.Lookup(name); ok {
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("dropping dataset %q: %w", name, engine.ErrNotDurable))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	s.bodies.set(name, nil)
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

type constraintsRequest struct {
	Dataset string `json:"dataset"`
	CFDs    string `json:"cfds"`
}

func (s *Server) handleConstraints(w http.ResponseWriter, r *http.Request) {
	var req constraintsRequest
	if !decode(w, r, &req) {
		return
	}
	set, err := s.reg.InstallConstraints(req.Dataset, req.CFDs)
	if err != nil {
		writeEngineError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"installed": set.Len(),
		"rows":      set.TotalRows(),
	})
}

type repairRequest struct {
	Dataset string `json:"dataset"`
	// Accept commits the candidate repair in the same request.
	Accept bool `json:"accept,omitempty"`
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req repairRequest
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Dataset)
	if !ok {
		return
	}
	// accept:true goes through the atomic variant so the committed
	// repair is exactly the one in the response (a Repair+Accept pair
	// could interleave with another client's Repair).
	var res *repair.Result
	var err error
	if req.Accept {
		res, err = sess.RepairAccept()
	} else {
		res, err = sess.Repair()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, repairResponse(sess.Schema(), res, req.Accept))
}

type incrementalRequest struct {
	Dataset string `json:"dataset"`
	// Tuples are given positionally as strings; each value is parsed
	// with the schema's attribute kind (empty string = NULL).
	Tuples [][]string `json:"tuples"`
}

func (s *Server) handleRepairIncremental(w http.ResponseWriter, r *http.Request) {
	var req incrementalRequest
	if !decode(w, r, &req) {
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	if len(req.Tuples) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no tuples to append"))
		return
	}
	res, err := ds.AppendRows(req.Tuples)
	if err != nil {
		writeEngineError(w, err, http.StatusConflict)
		return
	}
	out := map[string]any{"appended": res.Appended, "tuples": ds.Len()}
	if res.Repair != nil {
		out["repair"] = repairResponse(ds.Schema(), res.Repair, true)
	}
	writeJSON(w, http.StatusOK, out)
}

type discoverRequest struct {
	Dataset    string `json:"dataset"`
	MinSupport int    `json:"min_support,omitempty"`
	MaxLHS     int    `json:"max_lhs,omitempty"`
	// Install replaces the session constraints with the discovered set.
	Install bool `json:"install,omitempty"`
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req discoverRequest
	if !decode(w, r, &req) {
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	found, err := ds.Discover(discovery.Options{MinSupport: req.MinSupport, MaxLHS: req.MaxLHS}, req.Install)
	if err != nil {
		writeEngineError(w, err, http.StatusInternalServerError)
		return
	}
	var strs []string // null for a nil list (a cluster that found nothing)
	if found != nil {
		strs = make([]string, len(found))
		for i, c := range found {
			strs[i] = c.String()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":     len(found),
		"cfds":      strs,
		"installed": req.Install,
	})
}

type editRequest struct {
	Dataset string `json:"dataset"`
	TID     int    `json:"tid"`
	Attr    string `json:"attr"`
	// Value sets the cell (parsed with the attribute kind) and confirms
	// it; omitting Value with Confirm=true confirms the current value.
	Value   *string `json:"value,omitempty"`
	Confirm bool    `json:"confirm,omitempty"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	var req editRequest
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Dataset)
	if !ok {
		return
	}
	schema := sess.Schema()
	attr, ok2 := schema.Index(req.Attr)
	if !ok2 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("schema %s has no attribute %q", schema.Name(), req.Attr))
		return
	}
	switch {
	case req.Value != nil:
		v, err := relation.ParseValue(*req.Value, schema.Attr(attr).Kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := sess.Edit(req.TID, attr, v); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.Confirm:
		if err := sess.Confirm(req.TID, attr); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("provide value or confirm"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":   req.Dataset,
		"tid":       req.TID,
		"attr":      req.Attr,
		"confirmed": len(sess.ConfirmedCells()),
	})
}
