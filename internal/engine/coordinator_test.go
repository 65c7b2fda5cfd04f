package engine

import (
	"reflect"
	"sync/atomic"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/relation"
)

// fixedShard is an in-process worker that hands back the very reply it
// computed first, the way the HTTP client does for a worker answering
// 304, until a constraint install makes it compute again. Its Append
// ingests nothing: the coordinator's state moves, the reply does not.
type fixedShard struct {
	url     string
	data    *relation.Relation
	cfds    *cfd.Set
	dcs     *dc.Set
	reply   []cfd.ShardResult
	dcReply map[string]dc.ShardResult
	rounds  atomic.Int32 // boundary rounds answered
}

func (f *fixedShard) URL() string { return f.url }

func (f *fixedShard) Register(_ string, schema *relation.Schema, tuples []relation.Tuple) error {
	f.data = relation.New(schema)
	for _, t := range tuples {
		f.data.InsertUnchecked(t)
	}
	return nil
}

func (f *fixedShard) Drop(string) error { return nil }

func (f *fixedShard) InstallConstraints(_, text string) (err error) {
	f.cfds, f.reply = nil, nil
	f.cfds, err = cfd.ParseSet(text, f.data.Schema())
	return err
}

func (f *fixedShard) InstallDCs(_, text string) (err error) {
	f.dcs, f.dcReply = nil, nil
	f.dcs, err = dc.ParseSet(text, f.data.Schema())
	return err
}

func (f *fixedShard) ShardDetect(_, _ string, _ *cfd.Set) ([]cfd.ShardResult, error) {
	if f.reply == nil {
		var err error
		if f.reply, err = cfd.DetectShards(f.data, f.cfds, nil, 1); err != nil {
			return nil, err
		}
	}
	return f.reply, nil
}

func (f *fixedShard) ShardGroups(string, []int, []int, []string) ([]cfd.BoundaryGroup, error) {
	panic("the coordinator fetches in batches")
}

func (f *fixedShard) ShardGroupsBatch(_ string, queries []cfd.GroupQuery) ([][]cfd.BoundaryGroup, error) {
	f.rounds.Add(1)
	out := make([][]cfd.BoundaryGroup, len(queries))
	for i, q := range queries {
		var err error
		if out[i], err = cfd.CollectGroups(f.data, nil, q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *fixedShard) ShardDCs(string) (map[string]dc.ShardResult, error) {
	if f.dcReply == nil {
		f.dcReply = map[string]dc.ShardResult{}
		for _, d := range f.dcs.All() {
			f.dcReply[d.Name()] = dc.DetectShard(f.data, d, nil)
		}
	}
	return f.dcReply, nil
}

func (f *fixedShard) Append(_ string, tuples [][]string) (int, error) { return len(tuples), nil }

func (f *fixedShard) Discover(string, int, int) ([]string, error) { return nil, nil }

// TestCoordinatorReusesMergeWhileNothingMoved: a detect whose workers
// all hand back the replies the cached list was merged from answers
// without a boundary round — and only while the dataset's version and
// sets are the ones it was merged under, even when, as here, a worker
// would hand back the same reply across a mutation.
func TestCoordinatorReusesMergeWhileNothingMoved(t *testing.T) {
	shards := []*fixedShard{{url: "w0"}, {url: "w1"}}
	coord, err := NewCoordinator([]ShardClient{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	schema := relation.MustSchema("kv",
		relation.Attribute{Name: "K", Kind: relation.KindString},
		relation.Attribute{Name: "V", Kind: relation.KindString})
	data := relation.New(schema)
	for _, kv := range [][2]string{{"a", "x"}, {"b", "y"}, {"a", "q"}, {"c", "z"}} {
		data.MustInsert(relation.Tuple{relation.String(kv[0]), relation.String(kv[1])})
	}
	if _, err := coord.Register("kv", data); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.InstallConstraints("kv", "kv([K] -> [V])"); err != nil {
		t.Fatal(err)
	}
	const dcs = "dc kv: !( t.K = u.K & t.V != u.V )"
	if _, err := coord.InstallDCs("kv", dcs); err != nil {
		t.Fatal(err)
	}
	rounds := func() int { return int(shards[0].rounds.Load()) }
	detect := func(wantRounds int) *DetectResult {
		t.Helper()
		res, err := coord.Detect("kv")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 1 || !reflect.DeepEqual(res.Violations[0].TIDs, []int{0, 2}) {
			t.Fatalf("violations %v, want tuples 0 and 2", res.Violations)
		}
		if rounds() != wantRounds {
			t.Fatalf("%d boundary rounds, want %d", rounds(), wantRounds)
		}
		return res
	}
	first := detect(1)
	if again := detect(1); again.Gen != first.Gen || again.Stats != first.Stats {
		t.Fatalf("reused answer: gen %d stats %v, merged %d %v", again.Gen, again.Stats, first.Gen, first.Stats)
	}
	if n, err := coord.Append("kv", [][]string{{"d", "w"}}); err != nil || n != 1 {
		t.Fatalf("append: %d %v", n, err)
	}
	detect(2) // the version moved: merge again, though no reply did
	detect(2)
	if _, err := coord.InstallConstraints("kv", "kv([K] -> [V])"); err != nil {
		t.Fatal(err)
	}
	detect(3)

	detectDCs := func(limit, wantRounds int) {
		t.Helper()
		reports, _, err := coord.DetectDCs("kv", limit)
		if err != nil {
			t.Fatal(err)
		}
		want := []dc.Violation{{T: 0, U: 2}, {T: 2, U: 0}}
		if limit > 0 {
			want = want[:limit]
		}
		if len(reports) != 1 || !reflect.DeepEqual(reports[0].Violations, want) {
			t.Fatalf("DC reports %v, want %v", reports, want)
		}
		reports[0].Violations[0] = dc.Violation{} // the caller's to keep, not the memo's
		if rounds() != wantRounds {
			t.Fatalf("DC detect: %d boundary rounds, want %d", rounds(), wantRounds)
		}
	}
	detectDCs(0, 4)
	detectDCs(0, 4)
	detectDCs(1, 5) // the limit is part of the key
	detectDCs(0, 6)
	if _, err := coord.InstallDCs("kv", dcs); err != nil {
		t.Fatal(err)
	}
	detectDCs(0, 7)
}
