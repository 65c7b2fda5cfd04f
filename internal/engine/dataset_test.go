package engine

import (
	"fmt"
	"reflect"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/relation"
)

// engineShard is an in-process ShardClient over an *Engine: the worker
// half of the shard protocol without HTTP, so a ClusterDataset runs in
// an engine test. Like the HTTP client's decoder it points the shard's
// violations at the coordinator's CFDs.
type engineShard struct {
	url string
	eng *Engine
}

func (w *engineShard) URL() string { return w.url }

func (w *engineShard) Register(dataset string, schema *relation.Schema, tuples []relation.Tuple) error {
	_, err := w.eng.RegisterExact(dataset, schema, tuples)
	return err
}

func (w *engineShard) Drop(dataset string) error {
	w.eng.Drop(dataset)
	return nil
}

func (w *engineShard) InstallConstraints(dataset, cfds string) error {
	_, err := w.eng.InstallConstraints(dataset, cfds)
	return err
}

func (w *engineShard) InstallDCs(dataset, dcs string) error {
	_, err := w.eng.InstallDCs(dataset, dcs)
	return err
}

func (w *engineShard) ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error) {
	s, err := w.eng.lookup(dataset)
	if err != nil {
		return nil, err
	}
	var local *cfd.Set // nil: the installed set
	if cfds != "" {
		if local, err = w.eng.CompileConstraints(s.Schema(), cfds); err != nil {
			return nil, err
		}
	}
	results, err := s.ShardDetect(local)
	if err != nil {
		return nil, err
	}
	for ci, sr := range results {
		for _, g := range sr.Groups {
			for vi := range g.Vios {
				g.Vios[vi].CFD = set.All()[ci]
			}
		}
	}
	return results, nil
}

func (w *engineShard) ShardGroups(dataset string, partAttrs, valAttrs []int, keys []string) ([]cfd.BoundaryGroup, error) {
	q := cfd.GroupQuery{PartAttrs: partAttrs, ValAttrs: valAttrs}
	for _, k := range keys {
		q.Keys = append(q.Keys, []byte(k))
	}
	sides, err := w.ShardGroupsBatch(dataset, []cfd.GroupQuery{q})
	if err != nil {
		return nil, err
	}
	return sides[0], nil
}

func (w *engineShard) ShardGroupsBatch(dataset string, queries []cfd.GroupQuery) ([][]cfd.BoundaryGroup, error) {
	s, err := w.eng.lookup(dataset)
	if err != nil {
		return nil, err
	}
	return s.ShardGroups(queries)
}

func (w *engineShard) ShardDCs(dataset string) (map[string]dc.ShardResult, error) {
	s, err := w.eng.lookup(dataset)
	if err != nil {
		return nil, err
	}
	out := map[string]dc.ShardResult{}
	for _, r := range s.ShardDCs() {
		out[r.Name] = r.Result
	}
	return out, nil
}

func (w *engineShard) Append(dataset string, tuples [][]string) (int, error) {
	s, err := w.eng.lookup(dataset)
	if err != nil {
		return 0, err
	}
	res, err := s.AppendRows(tuples)
	if err != nil {
		return 0, err
	}
	return res.Appended, nil
}

func (w *engineShard) Discover(dataset string, minSupport, maxLHS int) ([]string, error) {
	s, err := w.eng.lookup(dataset)
	if err != nil {
		return nil, err
	}
	found, err := s.Discover(discovery.Options{MinSupport: minSupport, MaxLHS: maxLHS}, false)
	out := make([]string, len(found))
	for i, c := range found {
		out[i] = c.String()
	}
	return out, err
}

// appendRow makes a cust row in a zip no generated row has, so a tail
// worker's incremental repair and a single process's agree; dirty, its
// city is wrong for its area code and phi3 rewrites it.
func appendRow(seq int, dirty bool) []string {
	regions := [][3]string{{"44", "131", "edi"}, {"44", "141", "gla"}, {"01", "908", "mh"}, {"01", "212", "nyc"}}
	reg := regions[seq%len(regions)]
	ct := reg[2]
	if dirty {
		ct = regions[(seq+1)%len(regions)][2]
	}
	return []string{reg[0], reg[1], fmt.Sprintf("%s-t%07d", reg[1], seq), "tester",
		fmt.Sprintf("test street %s-%d", reg[1], seq%5), ct, fmt.Sprintf("ZT%s-%d", reg[1], seq%5)}
}

// TestDatasetImplementationsAgree runs one op sequence through Dataset
// on a Session and on one- and three-worker ClusterDatasets: every
// violation list, DC report and tuple count must equal the session's.
func TestDatasetImplementationsAgree(t *testing.T) {
	cluster := func(n int) (Registry, []*Engine) {
		clients := make([]ShardClient, n)
		workers := make([]*Engine, n)
		for i := range clients {
			workers[i] = New(Options{})
			clients[i] = &engineShard{url: fmt.Sprintf("w%d", i), eng: workers[i]}
		}
		c, err := NewCoordinator(clients)
		if err != nil {
			t.Fatal(err)
		}
		return c, workers
	}
	one, oneWorkers := cluster(1)
	three, threeWorkers := cluster(3)
	impls := []struct {
		name    string
		reg     Registry
		workers []*Engine
	}{{"session", New(Options{}), nil}, {"cluster-1", one, oneWorkers}, {"cluster-3", three, threeWorkers}}

	// Each op returns what must agree across the implementations.
	vioKeys := func(vs []cfd.Violation) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = fmt.Sprintf("%s row %d %v attr %d %v", v.CFD.Name(), v.Row, v.Kind, v.Attr, v.TIDs)
		}
		return out
	}
	detect := func(ds Dataset) (any, error) {
		res, err := ds.Detect()
		if err != nil {
			return nil, err
		}
		return vioKeys(res.Violations), nil
	}
	appendRows := func(from int, dirty bool) func(Dataset) (any, error) {
		return func(ds Dataset) (any, error) {
			rows := make([][]string, 4)
			for i := range rows {
				rows[i] = appendRow(from+i, dirty && i%2 == 0)
			}
			res, err := ds.AppendRows(rows)
			if err != nil {
				return nil, err
			}
			return []int{res.Appended, ds.Len()}, nil
		}
	}
	const zipDC = "dc zipstr: !( t.CC = u.CC & t.ZIP = u.ZIP & t.STR != u.STR )"
	ops := []struct {
		name string
		run  func(Dataset) (any, error)
	}{
		{"len", func(ds Dataset) (any, error) { return ds.Len(), nil }},
		{"install CFDs", func(ds Dataset) (any, error) {
			set, err := ds.InstallConstraints(datagen.CustConstraints().String())
			if err != nil {
				return nil, err
			}
			return set.String(), nil
		}},
		{"install DCs", func(ds Dataset) (any, error) {
			set, err := ds.InstallDCs(zipDC)
			if err != nil {
				return nil, err
			}
			return set.String(), nil
		}},
		{"detect", detect},
		{"violations", func(ds Dataset) (any, error) {
			res, err := ds.Violations()
			if err != nil {
				return nil, err
			}
			return vioKeys(res.Violations), nil
		}},
		{"append clean", appendRows(0, false)},
		{"detect after clean append", detect},
		{"append dirty", appendRows(4, true)},
		{"detect after dirty append", detect},
		{"discover", func(ds Dataset) (any, error) {
			_, err := ds.Discover(discovery.Options{MinSupport: 20, MaxLHS: 1}, false)
			return nil, err // what each finds may differ: a shard sees a slice
		}},
		{"detect DCs", func(ds Dataset) (any, error) {
			res, err := ds.DetectDCs(0)
			if err != nil {
				return nil, err
			}
			return res.Reports, nil
		}},
		{"detect DCs limit 2", func(ds Dataset) (any, error) {
			res, err := ds.DetectDCs(2)
			if err != nil {
				return nil, err
			}
			return res.Reports, nil
		}},
	}

	got := make([][]any, len(impls))
	for i, impl := range impls {
		ds, err := impl.reg.Add("cust", dirtyCust(t, 300, 11))
		if err != nil {
			t.Fatalf("%s: register: %v", impl.name, err)
		}
		for _, op := range ops {
			out, err := op.run(ds)
			if err != nil {
				t.Fatalf("%s: %s: %v", impl.name, op.name, err)
			}
			got[i] = append(got[i], out)
		}
		if !impl.reg.Drop("cust") || len(impl.reg.List()) != 0 {
			t.Fatalf("%s: drop left %v", impl.name, impl.reg.List())
		}
		for w, eng := range impl.workers {
			if names := eng.List(); len(names) != 0 {
				t.Fatalf("%s: worker %d still holds %v after the drop", impl.name, w, names)
			}
		}
	}
	if vs := got[0][3].([]string); len(vs) == 0 {
		t.Fatal("the noisy fixture violates nothing: the comparison is vacuous")
	}
	for i := 1; i < len(impls); i++ {
		for k, op := range ops {
			if !reflect.DeepEqual(got[i][k], got[0][k]) {
				t.Errorf("%s: %s = %.300v\nsession: %.300v", impls[i].name, op.name, got[i][k], got[0][k])
			}
		}
	}
}
