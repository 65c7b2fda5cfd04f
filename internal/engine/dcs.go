package engine

import (
	"fmt"

	"semandaq/internal/dc"
	"semandaq/internal/relation"
)

// This file is the engine-level face of the denial-constraint subsystem
// (internal/dc): sessions carry a DC registry next to their CFD set,
// detection runs against the SAME per-session PLI cache CFD detection
// and discovery share (a DC's equality-join partition is often exactly
// a partition discovery already built), and the engine caches compiled
// DC sets by (schema, text) like it caches CFD sets.

// DCs returns the session's installed denial-constraint set. Sets are
// immutable once installed; SetDCs swaps the whole set.
func (s *Session) DCs() *dc.Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dcs
}

// SetDCs replaces the session's denial-constraint set (schema-checked).
// DC violations are computed on demand rather than cached, so swapping
// the set invalidates nothing else — but it is a new state, so the
// version moves (a shard's DC reply is tagged with it).
func (s *Session) SetDCs(set *dc.Set) error {
	if set == nil {
		return fmt.Errorf("engine: nil DC set")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	if !s.data.Schema().Equal(set.Schema()) {
		return fmt.Errorf("engine: data schema %s does not match DC schema %s",
			s.data.Schema().Name(), set.Schema().Name())
	}
	if s.journal != nil {
		if err := s.journal.LogDCs(s.name, set.String()); err != nil {
			return notDurable("DCs", err)
		}
	}
	s.dcs = set
	s.bump()
	return nil
}

// DCReport is the detection result for one denial constraint.
type DCReport struct {
	Name       string
	Constraint string
	Violations []dc.Violation
	Truncated  bool
}

// DetectDCs runs denial-constraint detection for every installed DC
// against the current data, reusing (and warming) the session's shared
// PLI cache for the equality-join partitions. Reports come back in
// installation order; limit > 0 truncates each DC's (T,U)-sorted
// violation list. Like Detect, it holds the read lock across the
// computation, so concurrent CFD detection, discovery and appends
// interleave safely.
func (s *Session) DetectDCs(limit int) []DCReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.detectDCsLocked(s.dcs.All(), limit)
}

func (s *Session) detectDCsLocked(dcs []*dc.DC, limit int) []DCReport {
	out := make([]DCReport, 0, len(dcs))
	for _, d := range dcs {
		vios := dc.Detect(s.data, d, dc.Options{Cache: s.indexes, MaxViolations: limit})
		out = append(out, DCReport{
			Name:       d.Name(),
			Constraint: d.String(),
			Violations: vios,
			Truncated:  limit > 0 && len(vios) == limit,
		})
	}
	return out
}

// RelaxDC proposes relaxation repairs for one installed DC: the ranked
// weakenings of the constraint that resolve its current violations
// (dc.Relax), alongside the full violation list whose ViolatingTIDs
// feed the value-repair alternative. limit > 0 caps the number of
// weakenings returned (the violation list is never truncated — Relax
// needs every witness to place shifted constants soundly).
func (s *Session) RelaxDC(name string, limit int) ([]dc.Weakening, []dc.Violation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.dcs.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("engine: dataset %q has no DC %q", s.name, name)
	}
	vios := dc.Detect(s.data, d, dc.Options{Cache: s.indexes})
	weaks := dc.Relax(s.data, d, vios, dc.Options{Cache: s.indexes})
	if limit > 0 && len(weaks) > limit {
		weaks = weaks[:limit]
	}
	return weaks, vios, nil
}

// CompileDCs parses denial-constraint text against a schema, caching
// the compiled set keyed by (schema, text) exactly like
// CompileConstraints does for CFD sets. Compiled DC sets are shared
// across sessions and never mutated after installation.
func (e *Engine) CompileDCs(schema *relation.Schema, text string) (*dc.Set, error) {
	return compileCached(e, e.dcCache, schema, text, dc.ParseSet)
}

// InstallDCs compiles DC text and installs the set on the named
// dataset in one step — the service path for POST /v1/dcs.
func (e *Engine) InstallDCs(dataset, text string) (*dc.Set, error) {
	s, ok := e.Get(dataset)
	if !ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrUnknownDataset, dataset)
	}
	set, err := e.CompileDCs(s.Schema(), text)
	if err != nil {
		return nil, err
	}
	if err := s.SetDCs(set); err != nil {
		return nil, err
	}
	return set, nil
}
