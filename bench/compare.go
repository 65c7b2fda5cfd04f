package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// bench compare A.jsonl B.jsonl
//
// A and B are files written with -out: one record per run. compare
// takes the untraced runs of each side, and for every (workload,
// end-to-end metric) pair prints both medians and one verdict under the
// bounds in BENCHMARK.json:
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  either side's own runs spread wider than the bound, so
//	            the two medians cannot be told apart at that bound
//
// It exits non-zero on any "worse" row, and when B failed a larger
// share of its operations than A.

// benchmarkFile is the part of BENCHMARK.json compare and the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
	RunSeconds int      `json:"run_seconds"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	return &bf, json.Unmarshal(buf, &bf)
}

// side is one file's untraced runs, reduced.
type side struct {
	values            map[[2]string][]float64 // (workload, metric) -> one value per run
	attempted, failed map[string]int          // per workload
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: map[[2]string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		for name, m := range rec.Report.Metrics {
			k := [2]string{rec.Workload, name}
			s.values[k] = append(s.values[k], m.Value)
		}
		s.attempted[rec.Workload] += rec.Report.Attempted
		s.failed[rec.Workload] += rec.Report.Failed
	}
	return s, sc.Err()
}

// quartiles returns the first and third quartile of sorted (at least
// two values) exactly as Python's statistics.quantiles(xs, n=4) does
// (its default "exclusive" method), since that is what the benchmark's
// acceptance rule is stated in.
func quartiles(sorted []float64) (q1, q3 float64) {
	const n = 4
	ld := len(sorted)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/n, 1), ld-1)
		delta := float64(i*(ld+1) - j*n)
		return (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the distance between the first and third quartile of xs as
// a share of their median. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return (q3 - q1) / m
}

// verdict judges one metric: a and b are the two sides' runs.
func verdict(m metric, a, b []float64) string {
	ma, mb := median(a), median(b)
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return "unresolved"
	}
	worse := mb > ma*(1+m.Bound)
	if m.Better == "higher" {
		worse = mb < ma*(1-m.Bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

func compareMain(args []string) int {
	if len(args) != 2 {
		logf("usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	root, err := findRoot(".")
	if err != nil {
		logf("bench compare: %v", err)
		return 1
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		logf("bench compare: %v", err)
		return 1
	}
	a, err := readSide(args[0])
	if err != nil {
		logf("bench compare: %v", err)
		return 1
	}
	b, err := readSide(args[1])
	if err != nil {
		logf("bench compare: %v", err)
		return 1
	}
	code := 0
	fmt.Printf("%-15s %-15s %5s %12s %7s %12s %7s %6s  %s\n",
		"workload", "metric", "runs", "A median", "spread", "B median", "spread", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			k := [2]string{w.Name, m.Name}
			va, vb := a.values[k], b.values[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-15s %-15s %2d/%-2d %12.4f %6.1f%% %12.4f %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(va), len(vb), median(va), 100*spread(va), median(vb), 100*spread(vb), 100*m.Bound, v)
		}
		if fa, fb := failedShare(a, w.Name), failedShare(b, w.Name); fb > fa {
			fmt.Printf("%-15s failed share of operations rose from %.4f to %.4f\n", w.Name, fa, fb)
			code = 1
		}
	}
	return code
}

func failedShare(s *side, workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}
