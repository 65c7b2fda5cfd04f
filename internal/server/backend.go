package server

import (
	"fmt"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

// backend is what the handler set needs from the engine behind it: a
// local registry (*engine.Engine) or a cluster coordinator
// (*engine.Coordinator). Both adapters embed theirs, so the exported
// methods come for free and only registration and lookup, whose result
// types differ, are written out.
type backend interface {
	List() []string
	Drop(name string) bool
	InstallConstraints(dataset, text string) (*cfd.Set, error)
	InstallDCs(dataset, text string) (*dc.Set, error)

	register(name string, data *relation.Relation) (dataset, error)
	get(name string) (dataset, bool)
}

// dataset is one registered dataset as the handlers see it:
// *engine.Session or *engine.ClusterDataset (embedded, like above). The
// map an operation returns beside its result holds the response keys
// only that backend has; the handler adds them to the response it
// builds for both.
type dataset interface {
	Name() string
	Len() int
	Schema() *relation.Schema
	Constraints() *cfd.Set
	DCs() *dc.Set

	// describe fills the backend's own fields of the dataset info.
	describe(*datasetJSON)
	detect() ([]cfd.Violation, map[string]any, error)
	// violations returns the engine's cached list itself — shared, not
	// to be modified — and its generation (0: not cached, do not keep).
	violations() ([]cfd.Violation, uint64, map[string]any, error)
	// appendRows appends arity-checked raw rows and returns how many.
	appendRows(rows [][]string) (int, map[string]any, error)
	discover(minSupport, maxLHS int, install bool) ([]string, error)
	detectDCs(limit int) ([]engine.DCReport, map[string]any, error)
}

// fleet is the capability behind the "workers" key of /healthz and
// /v1/stats: only a coordinator has one.
type fleet interface {
	Workers() []string
	WorkerStats() map[string]engine.WorkerTotals
}

// --- local: sessions of an in-process engine.

type localBackend struct{ *engine.Engine }

func (b localBackend) register(name string, data *relation.Relation) (dataset, error) {
	sess, err := b.Register(name, data)
	if err != nil {
		return nil, err
	}
	return localDataset{sess}, nil
}

func (b localBackend) get(name string) (dataset, bool) {
	sess, ok := b.Get(name)
	return localDataset{sess}, ok
}

type localDataset struct{ *engine.Session }

func (d localDataset) describe(out *datasetJSON) {
	stats, resident := d.IndexStats(), d.IndexResidentBytes()
	out.IndexCache, out.IndexResidentBytes = &stats, &resident
}

func (d localDataset) detect() ([]cfd.Violation, map[string]any, error) {
	vs, err := d.Detect()
	return vs, nil, err
}

func (d localDataset) violations() ([]cfd.Violation, uint64, map[string]any, error) {
	vs, gen, err := d.SharedViolations()
	return vs, gen, nil, err
}

// appendRows parses each field with the schema's attribute kind (empty
// string = NULL) and repairs the delta incrementally.
func (d localDataset) appendRows(rows [][]string) (int, map[string]any, error) {
	schema := d.Schema()
	tuples := make([]relation.Tuple, len(rows))
	for i, fields := range rows {
		t := make(relation.Tuple, len(fields))
		for j, f := range fields {
			v, err := relation.ParseValue(f, schema.Attr(j).Kind)
			if err != nil {
				return 0, nil, badRequest{fmt.Errorf("tuple %d: %w", i, err)}
			}
			t[j] = v
		}
		tuples[i] = t
	}
	res, err := d.Append(tuples)
	if err != nil {
		return 0, nil, err
	}
	return len(tuples), map[string]any{"repair": repairResponse(schema, res, true)}, nil
}

func (d localDataset) discover(minSupport, maxLHS int, install bool) ([]string, error) {
	found, err := d.Discover(discovery.Options{MinSupport: minSupport, MaxLHS: maxLHS}, install)
	if err != nil {
		return nil, err
	}
	strs := make([]string, len(found))
	for i, c := range found {
		strs[i] = c.String()
	}
	return strs, nil
}

func (d localDataset) detectDCs(limit int) ([]engine.DCReport, map[string]any, error) {
	return d.DetectDCs(limit), nil, nil
}

// --- cluster: range partitions behind a coordinator, which holds no
// tuple data and answers by scatter-gather.

type clusterBackend struct{ *engine.Coordinator }

func (b clusterBackend) register(name string, data *relation.Relation) (dataset, error) {
	cd, err := b.Register(name, data)
	if err != nil {
		return nil, err
	}
	return clusterDataset{cd, b.Coordinator}, nil
}

func (b clusterBackend) get(name string) (dataset, bool) {
	cd, ok := b.Get(name)
	return clusterDataset{cd, b.Coordinator}, ok
}

type clusterDataset struct {
	*engine.ClusterDataset
	coord *engine.Coordinator
}

func (d clusterDataset) describe(out *datasetJSON) { out.Shards = d.Counts() }

func (d clusterDataset) detect() ([]cfd.Violation, map[string]any, error) {
	res, err := d.coord.Detect(d.Name())
	if err != nil {
		return nil, nil, err
	}
	extra := mergeInfo(res)
	extra["workers"] = res.Workers
	return res.Violations, extra, nil
}

func (d clusterDataset) violations() ([]cfd.Violation, uint64, map[string]any, error) {
	res, err := d.coord.Violations(d.Name())
	if err != nil {
		return nil, 0, nil, err
	}
	return res.Violations, res.Gen, mergeInfo(res), nil
}

// mergeInfo is what a cluster answer says about the merge behind it. A
// degraded merge — also the re-detect behind a read that missed the
// cache — is a sound partial answer over the surviving shards: flagged,
// never cached, never silently passed off as the global result.
func mergeInfo(res *engine.DetectResult) map[string]any {
	extra := map[string]any{"residual": residualInfo(res.Stats)}
	if res.Degraded {
		extra["degraded"] = true
		extra["failed_workers"] = res.Failed
	}
	return extra
}

// appendRows forwards the raw fields: the tail worker parses and
// repairs them, and its 4xx relays.
func (d clusterDataset) appendRows(rows [][]string) (int, map[string]any, error) {
	n, err := d.coord.Append(d.Name(), rows)
	return n, nil, err
}

func (d clusterDataset) discover(minSupport, maxLHS int, install bool) ([]string, error) {
	return d.coord.Discover(d.Name(), minSupport, maxLHS, install)
}

func (d clusterDataset) detectDCs(limit int) ([]engine.DCReport, map[string]any, error) {
	reports, stats, err := d.coord.DetectDCs(d.Name(), limit)
	if err != nil {
		return nil, nil, err
	}
	// One residual per report; a dataset without DCs has neither.
	residual := make([]residualJSON, len(reports))
	for i, st := range stats {
		residual[i] = residualInfo(cfd.MergeStats(st))
	}
	return reports, map[string]any{"residual": residual}, nil
}
