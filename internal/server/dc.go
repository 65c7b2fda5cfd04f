package server

import (
	"fmt"
	"net/http"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
)

// Denial-constraint endpoints (see internal/dc): install a DC set next
// to a dataset's CFD set, detect violations through the shared PLI
// cache, and answer a violated DC with ranked relaxations of the rule
// alongside the violating TIDs the value-repair path takes instead.

type dcsRequest struct {
	Dataset string `json:"dataset"`
	// DCs is the constraint text, one DC per line in the internal/dc
	// grammar, e.g. "dc pay: !( t.DEPT = u.DEPT & t.LEVEL < u.LEVEL & t.SAL > u.SAL )".
	// Installing REPLACES the dataset's whole DC set (like
	// POST /v1/constraints does for CFDs) — resend every DC to keep.
	DCs string `json:"dcs"`
}

func (s *Server) handleDCs(w http.ResponseWriter, r *http.Request) {
	var req dcsRequest
	if !decode(w, r, &req) {
		return
	}
	set, err := s.reg.InstallDCs(req.Dataset, req.DCs)
	if err != nil {
		writeEngineError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"installed": set.Len()})
}

type dcJSON struct {
	Name       string `json:"name"`
	Constraint string `json:"constraint"`
}

func (s *Server) handleDCList(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.dataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	all := ds.DCs().All()
	out := make([]dcJSON, len(all))
	for i, d := range all {
		out[i] = dcJSON{Name: d.Name(), Constraint: d.String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"dcs": out})
}

type dcDetectRequest struct {
	Dataset string `json:"dataset"`
	// Limit truncates each DC's (t,u)-sorted violation list (0 = all).
	Limit int `json:"limit,omitempty"`
}

type dcReportJSON struct {
	Name       string         `json:"name"`
	Constraint string         `json:"constraint"`
	Count      int            `json:"count"`
	Truncated  bool           `json:"truncated"`
	Violations []dc.Violation `json:"violations"`
	TIDs       []int          `json:"tids"`
}

func (s *Server) handleDCDetect(w http.ResponseWriter, r *http.Request) {
	var req dcDetectRequest
	if !decode(w, r, &req) {
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	start := time.Now()
	res, err := ds.DetectDCs(req.Limit)
	if err != nil {
		writeEngineError(w, err, http.StatusInternalServerError)
		return
	}
	out := make([]dcReportJSON, len(res.Reports))
	total := 0
	for i, rep := range res.Reports {
		out[i] = dcReportJSON{
			Name:       rep.Name,
			Constraint: rep.Constraint,
			Count:      len(rep.Violations),
			Truncated:  rep.Truncated,
			Violations: rep.Violations,
			TIDs:       dc.ViolatingTIDs(rep.Violations),
		}
		total += len(rep.Violations)
	}
	resp := map[string]any{
		"count":      total,
		"reports":    out,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	}
	if res.Residual != nil {
		// One residual per report; a dataset without DCs has neither.
		residual := make([]residualJSON, len(res.Residual))
		for i, st := range res.Residual {
			residual[i] = residualInfo(cfd.MergeStats(st))
		}
		resp["residual"] = residual
	}
	writeJSON(w, http.StatusOK, resp)
}

type dcRelaxRequest struct {
	Dataset string `json:"dataset"`
	DC      string `json:"dc"`
	// Limit caps the number of weakenings returned (0 = all).
	Limit int `json:"limit,omitempty"`
}

type weakeningJSON struct {
	Kind       string `json:"kind"`
	Pred       int    `json:"pred"`
	Constraint string `json:"constraint,omitempty"` // empty for kind "drop"
	Desc       string `json:"desc"`
	Resolved   int    `json:"resolved"`
	Total      int    `json:"total"`
	Consistent bool   `json:"consistent"`
}

func (s *Server) handleDCRelax(w http.ResponseWriter, r *http.Request) {
	var req dcRelaxRequest
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Dataset)
	if !ok {
		return
	}
	if req.DC == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing dc name"))
		return
	}
	weaks, vios, err := sess.RelaxDC(req.DC, req.Limit)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	out := make([]weakeningJSON, len(weaks))
	for i, wk := range weaks {
		out[i] = weakeningJSON{
			Kind:       wk.Kind,
			Pred:       wk.Pred,
			Desc:       wk.Desc,
			Resolved:   wk.Resolved,
			Total:      wk.Total,
			Consistent: wk.Consistent,
		}
		if wk.Weakened != nil {
			out[i].Constraint = wk.Weakened.String()
		}
	}
	// The violating TIDs are the input to the value-repair alternative:
	// edit/confirm those tuples (POST /v1/edit, /v1/repair) instead of
	// weakening the rule.
	writeJSON(w, http.StatusOK, map[string]any{
		"violations": len(vios),
		"tids":       dc.ViolatingTIDs(vios),
		"weakenings": out,
	})
}
