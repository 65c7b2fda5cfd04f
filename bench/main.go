// Command bench is the repository's benchmark: it builds semandaqd,
// generates every input from a seed, runs one of four workloads
// against a fresh daemon (or cluster), checks the outputs and prints
// the metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// report is the one JSON object a run prints last on standard output.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]measuredV `json:"metrics"`
}

type measuredV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -out stores it, one JSON object per line, for
// `bench compare`.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Env      map[string]string `json:"env"`
	Report   report            `json:"report"`
}

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	name := flag.String("workload", "", "run this workload only (default: all four)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", -1, "0 = end-to-end run, 1 = traced per-layer run, -1 = both")
	out := flag.String("out", "", "append each run's record to this file, for `bench compare`")
	root := flag.String("root", ".", "checkout to build and measure (any directory inside it)")
	bin := flag.String("bin", "", "semandaqd binary built from that checkout (default: build it)")
	flag.Parse()

	var todo []*workload
	if *name == "" {
		todo = workloads
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		logf("bench: unknown workload %q", *name)
		return 2
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		logf("bench: -seconds must be at least 1 and -trace one of -1, 0, 1")
		return 2
	}
	dir, err := findRoot(*root)
	if err != nil {
		logf("bench: %v", err)
		return 1
	}
	h, err := newHarness(dir, *bin)
	if err != nil {
		logf("bench: %v", err)
		return 1
	}
	defer h.cleanup()

	env := environment(dir)
	env["flags"] = strings.Join(os.Args[1:], " ")
	logf("bench: %v", env)

	code := 0
	for _, w := range todo {
		for _, tr := range []int{0, 1} {
			if *trace >= 0 && *trace != tr {
				continue
			}
			logf("== %s  seed %d  %d s  trace %d", w.name, *seed, *seconds, tr)
			rep, err := h.runOne(w, *seed, time.Duration(*seconds)*time.Second, tr == 1)
			if err != nil {
				logf("bench: %s: %v", w.name, err)
				return 1
			}
			line, err := json.Marshal(rep)
			if err != nil {
				logf("bench: %v", err)
				return 1
			}
			if *out != "" {
				if err := appendRecord(*out, record{w.name, *seed, *seconds, tr, env, *rep}); err != nil {
					logf("bench: %v", err)
					return 1
				}
			}
			fmt.Println(string(line))
			if !rep.Correct || rep.Failed > 0 {
				code = 1
			}
		}
	}
	return code
}

// runOne makes the inputs, runs one workload once and reports it.
func (h *harness) runOne(w *workload, seed int64, window time.Duration, traced bool) (*report, error) {
	in, err := genInputs(w, seed)
	if err != nil {
		return nil, err
	}
	if traced {
		return h.runTraced(w, in, seed, window)
	}
	res, err := h.runLoad(w, in, seed, window)
	if err != nil {
		return nil, err
	}
	return res.report(w), nil
}

// report turns an untraced run into the end-to-end metrics.
func (r *e2e) report(w *workload) *report {
	t := tallyOf(r.samples)
	secs := r.wall.Seconds()
	latency := percentile(t.byClass[w.headline], 50)
	if w.job {
		latency = median(jobTimes(r.samples))
	}
	vals := map[string]float64{
		"setup_s":        median(r.setups),
		"ops_per_s":      sliceRate(r.samples, r.wall, func(sample) float64 { return 1 }),
		"rows_per_s":     sliceRate(r.samples, r.wall, func(s sample) float64 { return float64(s.rows) }),
		"latency_p50_ms": latency,
		"peak_rss_mb":    r.rssMB,
	}
	rep := &report{
		Correct:   len(r.checks) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]measuredV{},
	}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = measuredV{vals[m.Name], m.Unit}
	}
	for _, c := range r.checks {
		logf("  CHECK FAILED: %s", c)
	}
	if t.firstErr != nil {
		logf("  first failed op: %v", t.firstErr)
	}
	logf("  set-ups %.3f s; window %.2f s, %d ops (%d failed), %d rows; whole-window mean %.2f ops/s", r.setups, secs, t.attempted, t.failed, t.rows, float64(t.attempted-t.failed)/secs)
	classes := make([]string, 0, len(t.byClass))
	for c := range t.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		ds := t.byClass[c]
		logf("  %-9s n=%-6d p50 %8.3f ms  p95 %8.3f ms", c, len(ds), percentile(ds, 50), pctIf(ds, 95))
	}
	for _, m := range endToEnd {
		logf("  %-16s %12.4f %s", m.Name, vals[m.Name], m.Unit)
	}
	return rep
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// environment records what the numbers depend on besides the code. The
// process environment itself is passed through to every child
// unchanged.
func environment(root string) map[string]string {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"numcpu":     fmt.Sprint(runtime.NumCPU()),
		"commit":     commit,
	}
}
