package server

import (
	"crypto/rand"
	"encoding/base64"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/relation"
)

// Worker-side shard protocol of scatter-gather detection. A worker is
// an ordinary semandaqd process (every server over a local engine mounts
// these routes; the -worker flag only changes startup logging): the
// coordinator range-partitions a dataset at registration, each worker
// owns its contiguous TID slice as a normal session, and these
// endpoints expose the shard-local halves the coordinator merges.
//
// Values cross the wire as base64 of their exact relation.Value.Encode
// bytes — the same injective encoding that defines group identity — so
// worker-side interning, group keys and detection results are
// bit-identical to the coordinator's view of the same tuples (JSON
// numbers would round-trip float64s and large int64s lossily).
//
//	POST /v1/shard/register  ingest a TID-range slice (exact tuples)
//	POST /v1/shard/detect    per-group shard-local CFD detection
//	POST /v1/shard/groups    boundary-group summaries for the merge
//	POST /v1/shard/dc        shard-local DC detection + group keys
//
// TIDs in every response are shard-local; the coordinator translates.
//
// /v1/shard/detect of the installed set and /v1/shard/dc are phase-1
// replies the coordinator asks for on every detect. They carry
// ETag "<boot nonce>-<session version>" (shardTag) and answer an
// If-None-Match naming the current tag with an empty 304, without
// detecting: the version moves on every change to the data, the CFDs or
// the DCs, is never reissued within the process, and the nonce keeps a
// restarted worker from honouring its predecessor's tags.

// bootNonce is this process's part of every shard tag.
var bootNonce = rand.Text()

// shardTag is the ETag of a phase-1 reply computed at version v.
func shardTag(v uint64) string {
	return `"` + bootNonce + "-" + strconv.FormatUint(v, 10) + `"`
}

// notModified sets tag as the reply's ETag and answers 304 when the
// request already holds it. The caller reads the version BEFORE it
// detects (engine.Session.Version), so a tag never claims a state newer
// than the reply it labels.
func notModified(w http.ResponseWriter, r *http.Request, tag string) bool {
	w.Header().Set("ETag", tag)
	if r.Header.Get("If-None-Match") != tag {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

type shardRegisterRequest struct {
	Name   string     `json:"name"`
	Schema schemaJSON `json:"schema"`
	// Rows are base64(EncodeTuple): each row the concatenation of all
	// attributes' Value.Encode bytes.
	Rows []string `json:"rows"`
}

func (s *Server) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	var req shardRegisterRequest
	if !decode(w, r, &req) {
		return
	}
	schema, err := req.Schema.schema()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tuples := make([]relation.Tuple, len(req.Rows))
	for i, row := range req.Rows {
		raw, err := base64.StdEncoding.DecodeString(row)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("row %d: %w", i, err))
			return
		}
		t, err := relation.DecodeTuple(raw, schema.Arity())
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("row %d: %w", i, err))
			return
		}
		tuples[i] = t
	}
	sess, err := s.eng.RegisterExact(req.Name, schema, tuples)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": sess.Name(), "tuples": sess.Len()})
}

type shardDetectRequest struct {
	Dataset string `json:"dataset"`
	// CFDs, when non-empty, detects this constraint text instead of the
	// installed set (the coordinator's discovery verification).
	CFDs string `json:"cfds,omitempty"`
}

type shardVioJSON struct {
	Row  int   `json:"row"`
	Kind int   `json:"kind"`
	Attr int   `json:"attr"`
	TIDs []int `json:"tids"`
}

type shardGroupJSON struct {
	Key  string         `json:"key"` // base64 of the composite Encode key
	N    int            `json:"n"`
	Vios []shardVioJSON `json:"vios,omitempty"`
}

type shardCFDJSON struct {
	Groups []shardGroupJSON `json:"groups"`
}

func (s *Server) handleShardDetect(w http.ResponseWriter, r *http.Request) {
	var req shardDetectRequest
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Dataset)
	if !ok {
		return
	}
	var set *cfd.Set // nil = installed
	if req.CFDs == "" && notModified(w, r, shardTag(sess.Version())) {
		return
	}
	if req.CFDs != "" {
		var err error
		set, err = s.eng.CompileConstraints(sess.Schema(), req.CFDs)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	start := time.Now()
	results, err := sess.ShardDetect(set)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]shardCFDJSON, len(results))
	for ci, sr := range results {
		groups := make([]shardGroupJSON, len(sr.Groups))
		for gi, g := range sr.Groups {
			gj := shardGroupJSON{Key: base64.StdEncoding.EncodeToString([]byte(g.Key)), N: g.N}
			for _, v := range g.Vios {
				gj.Vios = append(gj.Vios, shardVioJSON{Row: v.Row, Kind: int(v.Kind), Attr: v.Attr, TIDs: v.TIDs})
			}
			groups[gi] = gj
		}
		out[ci] = shardCFDJSON{Groups: groups}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cfds":       out,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

type shardGroupsRequest struct {
	Dataset string `json:"dataset"`
	// Queries hold all the boundary keys of a detection, one query per
	// CFD (or DC).
	Queries []cfd.GroupQuery `json:"queries"`
}

// shardSideJSON is the worker's side of one requested group (a
// cfd.BoundaryGroup): its TIDs and O(1) values, not its members' rows
// unless the query asked for them.
type shardSideJSON struct {
	TIDs []int `json:"tids,omitempty"`
	// Rows[m] is a member's Value.Encode bytes over ValAttrs, in ValAttrs
	// order (base64 in JSON): TIDs[m]'s for a Rows query, else TIDs[0]'s.
	Rows [][]byte `json:"rows,omitempty"`
	// Differs lists the attributes of ValAttrs on which some member is
	// not Identical to the first.
	Differs []int `json:"differs,omitempty"`
}

// handleShardGroups answers with "queries": one list per query, one
// shardSideJSON per key.
func (s *Server) handleShardGroups(w http.ResponseWriter, r *http.Request) {
	var req shardGroupsRequest
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Dataset)
	if !ok {
		return
	}
	sides, err := sess.ShardGroups(req.Queries)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := make([][]shardSideJSON, len(sides))
	for qi, groups := range sides {
		attrs := req.Queries[qi].ValAttrs
		out[qi] = make([]shardSideJSON, len(groups))
		for i, g := range groups {
			if len(g.TIDs) == 0 {
				continue
			}
			sj := shardSideJSON{TIDs: g.TIDs, Rows: make([][]byte, len(g.Rows)), Differs: g.Differs}
			for m, row := range g.Rows {
				for _, a := range attrs {
					sj.Rows[m] = row[a].Encode(sj.Rows[m])
				}
			}
			out[qi][i] = sj
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": out})
}

type shardDCRequest struct {
	Dataset string `json:"dataset"`
}

type shardDCJSON struct {
	Name string       `json:"name"`
	Vios []dcPairJSON `json:"vios,omitempty"`
	Keys []string     `json:"keys,omitempty"` // base64 equality-group keys
}

type dcPairJSON struct {
	T int `json:"t"`
	U int `json:"u"`
}

func (s *Server) handleShardDC(w http.ResponseWriter, r *http.Request) {
	var req shardDCRequest
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Dataset)
	if !ok || notModified(w, r, shardTag(sess.Version())) {
		return
	}
	results := sess.ShardDCs()
	out := make([]shardDCJSON, len(results))
	for i, res := range results {
		dj := shardDCJSON{Name: res.Name}
		for _, v := range res.Result.Vios {
			dj.Vios = append(dj.Vios, dcPairJSON{T: v.T, U: v.U})
		}
		for _, k := range res.Result.Keys {
			dj.Keys = append(dj.Keys, base64.StdEncoding.EncodeToString([]byte(k)))
		}
		out[i] = dj
	}
	writeJSON(w, http.StatusOK, map[string]any{"dcs": out})
}
