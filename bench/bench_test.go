package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// prefix encodes the first n ops of a client's stream.
func prefix(t *testing.T, w *workload, seed int64, client, n int) string {
	t.Helper()
	s := newStream(w, seed, client)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	buf, err := json.Marshal(struct{ Ops []any }{Ops: func() []any {
		out := make([]any, n)
		for i, o := range ops {
			out[i] = []any{o.class, o.rows, o.tid, o.value}
		}
		return out
	}()})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := genCust("cust", 500, 7).csv, genCust("cust", 500, 7).csv; a != b {
		t.Error("same seed, different cust CSV")
	}
	if a, b := genCust("cust", 500, 7).csv, genCust("cust", 500, 8).csv; a == b {
		t.Error("different seeds, same cust CSV")
	}
	if a, b := genEmp("emp", 200, 7).csv, genEmp("emp", 200, 7).csv; a != b {
		t.Error("same seed, different emp CSV")
	}
	for _, w := range workloads {
		if w.job {
			continue
		}
		if a, b := prefix(t, w, 3, 0, 300), prefix(t, w, 3, 0, 300); a != b {
			t.Errorf("%s: same seed and client, different op sequence", w.name)
		}
		if a, b := prefix(t, w, 3, 0, 300), prefix(t, w, 4, 0, 300); a == b {
			t.Errorf("%s: different seeds, same op sequence", w.name)
		}
		if a, b := prefix(t, w, 3, 0, 300), prefix(t, w, 3, 1, 300); a == b {
			t.Errorf("%s: two clients share one op sequence", w.name)
		}
	}
}

// A block of the stream holds each class in exact proportion to its
// weight.
func TestStreamBlocksKeepTheMix(t *testing.T) {
	w := workloadByName("serve-mixed")
	s := newStream(w, 1, 0)
	got := map[string]int{}
	for i := 0; i < 108*3; i++ {
		got[s.next().class]++
	}
	want := map[string]int{"read": 150, "detect": 60, "append": 60, "dc": 30, "edit": 15, "discover": 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("three blocks dealt %v, want %v", got, want)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 50, false}, {20, 50, true}, {199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(ds, 50); got != 50 {
		t.Errorf("p50 of 1..100 ms = %v, want 50", got)
	}
	if got := percentile(ds, 95); got != 95 {
		t.Errorf("p95 of 1..100 ms = %v, want 95", got)
	}
	if got := pctIf(ds, 95); got != 0 {
		t.Errorf("p95 of 100 samples reported as %v; it has only 5 samples beyond it", got)
	}
	if got := pctIf(ds, 50); got != 50 {
		t.Errorf("p50 of 100 samples = %v, want 50", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first: counted once
		{Start: 90, End: 120}, // sticks out: clipped to the parent
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self time = %d ns, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: -5, End: 500}}); got != 0 {
		t.Errorf("self time under a covering child = %d, want 0", got)
	}
}

func TestRungSelfNeverNegative(t *testing.T) {
	if got := rungSelf(7, 5); got != 2 {
		t.Errorf("rungSelf(7, 5) = %v, want 2", got)
	}
	if got := rungSelf(5, 7); got != 0 {
		t.Errorf("a lower rung slower than the upper one gave self time %v, want 0", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The names the program emits are the names BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %v\nprogram %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile    %v\nprogram %v", bf.PerLayer, perLayer)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}

	// An untraced run reports exactly the end-to-end metrics.
	rep := (&e2e{setups: []float64{1}, samples: []sample{{class: "read", d: time.Millisecond}}, wall: time.Second}).report(workloads[0])
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("an untraced run reports %d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("an untraced run reports %q as %+v", m.Name, got)
		}
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := spread([]float64{1, 2, 4}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("spread of 1,2,4 = %v, want 1.5", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "x_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{higher, steady, []float64{95, 96, 94, 95, 95}, "ok"},
		{higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{lower, steady, []float64{80, 150, 100, 60, 140}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestJobTimes(t *testing.T) {
	s := func(class string, d int) sample { return sample{class: class, d: time.Duration(d) * time.Millisecond} }
	got := jobTimes([]sample{
		s("upload", 1), s("detect", 2), s("delete", 3),
		s("upload", 10), s("delete", 20),
	})
	if want := []float64{6, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("job times %v, want %v", got, want)
	}
}
