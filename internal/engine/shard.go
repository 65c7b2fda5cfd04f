package engine

import (
	"fmt"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/relation"
)

// Worker-side session methods of scatter-gather detection: a worker
// process owns a TID-range slice of a dataset as an ordinary Session
// (registered through RegisterExact so shard tuples reproduce the
// coordinator's bit for bit) and answers the coordinator's shard
// protocol from the same locked, index-cached state every local request
// uses. All three run under the read lock, so they interleave with
// local appends and other detections exactly like Detect does.

// RegisterExact registers a dataset from pre-validated tuples via the
// exact-reproduction ingest path (relation.InsertUnchecked): no kind
// validation or coercion, so a shard's interned codes and group keys
// match the tuples' origin bit for bit — including kind-mismatched
// cells an unchecked Set left behind. This is the worker registration
// path; user-facing ingest stays on Register.
func (e *Engine) RegisterExact(name string, schema *relation.Schema, tuples []relation.Tuple) (*Session, error) {
	data := relation.New(schema)
	for i, t := range tuples {
		if len(t) != schema.Arity() {
			return nil, fmt.Errorf("engine: tuple %d has %d values, schema %s expects %d",
				i, len(t), schema.Name(), schema.Arity())
		}
		data.InsertUnchecked(t)
	}
	return e.Register(name, data)
}

// ShardDetect runs shard-local detection keyed by X-group
// (cfd.DetectShards) over the session data. set == nil detects the
// installed constraint set; a non-nil set (e.g. a discovery candidate
// set the coordinator is verifying) must match the schema.
func (s *Session) ShardDetect(set *cfd.Set) ([]cfd.ShardResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if set == nil {
		set = s.set
	}
	return cfd.DetectShards(s.data, set, s.indexes, s.workers)
}

// ShardGroups answers the coordinator's boundary fetch — every CFD's
// (or one DC's) queries of a detection in one call, under one read
// lock: per query and key, the matching local group's TIDs (shard-local
// — the coordinator translates) and its summary over the query's value
// attributes (cfd.CollectGroups).
func (s *Session) ShardGroups(queries []cfd.GroupQuery) ([][]cfd.BoundaryGroup, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	arity := s.data.Schema().Arity()
	out := make([][]cfd.BoundaryGroup, len(queries))
	for i, q := range queries {
		for _, attrs := range [][]int{q.PartAttrs, q.ValAttrs} {
			for _, a := range attrs {
				if a < 0 || a >= arity {
					return nil, fmt.Errorf("engine: attribute %d out of range for schema %s", a, s.data.Schema().Name())
				}
			}
		}
		if len(q.PartAttrs) == 0 {
			return nil, fmt.Errorf("engine: shard group fetch needs partition attributes")
		}
		var err error
		if out[i], err = cfd.CollectGroups(s.data, s.indexes, q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ShardDCResult is one installed DC's shard-local contribution.
type ShardDCResult struct {
	Name   string
	Result dc.ShardResult
}

// ShardDCs runs shard-local DC detection (dc.DetectShard) for every
// installed DC, in installation order, with untruncated violation
// lists and the shard's equality-group keys.
func (s *Session) ShardDCs() []ShardDCResult {
	s.mu.RLock()
	defer s.mu.RUnlock()
	all := s.dcs.All()
	out := make([]ShardDCResult, 0, len(all))
	for _, d := range all {
		out = append(out, ShardDCResult{Name: d.Name(), Result: dc.DetectShard(s.data, d, s.indexes)})
	}
	return out
}
