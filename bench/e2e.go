package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// inputs is everything generated from the seed for one run.
type inputs struct {
	cust, emp *dataset   // service workloads
	jobs      []*dataset // the batch job's datasets, cleaned in turn
	ref       []digest   // single-process detection of cust, or of each job dataset
}

func genInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{}
	var refOf []*dataset
	if w.job {
		for k := 0; k < jobDatasets; k++ {
			d := genCust(fmt.Sprintf("job%d", k), w.custN, seed*100+int64(10*k))
			d.dcs = ""
			in.jobs = append(in.jobs, d)
		}
		refOf = in.jobs
	} else {
		in.cust = genCust("cust", w.custN, seed*100)
		in.emp = genEmp("emp", w.empN, seed*100+7)
		refOf = []*dataset{in.cust}
	}
	for _, d := range refOf {
		ref, err := referenceDigest(d.rel, d.cfds)
		if err != nil {
			return nil, err
		}
		in.ref = append(in.ref, ref)
	}
	return in, nil
}

// stack is one running instance of the system under test.
type stack struct {
	procs   []*daemon // every process, for memory and teardown
	front   *daemon   // the one clients talk to
	args    []string  // the front daemon's flags without -addr, for a restart
	dataDir string    // durable workloads: the -data-dir
	setup   time.Duration
	jobSeq  int
	logName string
	// inspect, when set, is shown each job's dataset just before the
	// job deletes it (the traced run reads its cache counters there).
	inspect func(a *api, name string)
}

func (s *stack) kill() {
	for _, p := range s.procs {
		p.kill()
	}
}

func (s *stack) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range s.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// setUp starts a fresh daemon (or cluster) for w on free ports, loads
// the inputs through the public API and checks the first detection
// against the single-process reference. Its duration is the set-up
// time: exec to the first verified answer.
func (h *harness) setUp(w *workload, in *inputs) (*stack, error) {
	start := time.Now()
	s := &stack{logName: w.name}
	var err error
	switch {
	case w.cluster:
		var urls []string
		for i := 0; i < 2; i++ {
			wk, err := h.start(fmt.Sprintf("%s-worker%d", w.name, i), "-worker")
			if err != nil {
				s.kill()
				return nil, err
			}
			s.procs = append(s.procs, wk)
			urls = append(urls, wk.url)
		}
		s.args = []string{"-cluster", strings.Join(urls, ",")}
	case w.durable:
		if s.dataDir, err = h.mkdir("data"); err != nil {
			return nil, err
		}
		s.args = []string{"-data-dir", s.dataDir, "-wal-sync", "always", "-checkpoint-every", "0", "-index-budget-mb", "0"}
	default:
		dir, err := h.mkdir("spill")
		if err != nil {
			return nil, err
		}
		s.args = []string{"-index-budget-mb", fmt.Sprint(w.budgetMB), "-spill-dir", dir}
	}
	if s.front, err = h.start(w.name, s.args...); err != nil {
		s.kill()
		return nil, err
	}
	s.procs = append(s.procs, s.front)
	a := newAPI(s.front.url)
	if w.job {
		// The first job is part of set-up: it makes the daemon create
		// its spill directory and grow its heap before the window.
		if _, err := s.runJob(a, in); err != nil {
			s.kill()
			return nil, fmt.Errorf("set-up job: %w", err)
		}
	} else {
		for _, d := range []*dataset{in.cust, in.emp} {
			if err := a.upload(d); err != nil {
				s.kill()
				return nil, err
			}
		}
		got, err := a.detect("cust")
		if err == nil && got != in.ref[0] {
			err = fmt.Errorf("first detect: daemon found %v, single-process reference %v", got, in.ref[0])
		}
		if err != nil {
			s.kill()
			return nil, err
		}
	}
	s.setup = time.Since(start)
	return s, nil
}

// runJob cleans the next job dataset end to end and returns one sample
// per request. It fails unless the cold detection equals the
// reference and the repaired data has no violation left.
func (s *stack) runJob(a *api, in *inputs) ([]sample, error) {
	k := s.jobSeq % len(in.jobs)
	d := *in.jobs[k]
	d.name = fmt.Sprintf("job%d", s.jobSeq)
	s.jobSeq++
	var out []sample
	var failed error
	step := func(class string, rows int, fn func() error) {
		if failed != nil {
			return
		}
		t := time.Now()
		err := fn()
		out = append(out, sample{class: class, d: time.Since(t), rows: rows, err: err})
		failed = err
	}
	step("upload", 0, func() error { return a.upload(&d) })
	step("detect", 0, func() error {
		got, err := a.detect(d.name)
		if err == nil && got != in.ref[k] {
			err = fmt.Errorf("cold detect of %s: daemon found %v, reference %v", d.name, got, in.ref[k])
		}
		return err
	})
	step("discover", 0, func() error {
		return a.call("POST", "/v1/discover", discoverBody(d.name), nil)
	})
	step("repair", 0, func() error {
		return a.call("POST", "/v1/repair", map[string]any{"dataset": d.name, "accept": true}, nil)
	})
	step("detect", 0, func() error {
		got, err := a.detect(d.name)
		if err == nil && got.count != 0 {
			err = fmt.Errorf("%s has %d violations after repair", d.name, got.count)
		}
		return err
	})
	if s.inspect != nil && failed == nil {
		s.inspect(a, d.name)
	}
	step("delete", 0, func() error {
		return a.call("DELETE", "/v1/datasets/"+d.name, nil, nil)
	})
	if failed == nil {
		creditRows(out, d.rel.Len())
	}
	return out, failed
}

// creditRows books a verified-clean job's n rows to its requests in
// proportion to the time each took, so that throughput per slice of the
// window sees rows flow at the job's pace and not arrive in one lump.
func creditRows(job []sample, n int) {
	var total time.Duration
	for _, s := range job {
		total += s.d
	}
	left := n
	for i := range job {
		job[i].rows = int(float64(n) * float64(job[i].d) / float64(total))
		left -= job[i].rows
	}
	job[len(job)-1].rows += left
}

// e2e is what one untraced run measured.
type e2e struct {
	setups  []float64 // seconds, one per set-up
	samples []sample  // the window's
	wall    time.Duration
	rssMB   float64
	checks  []string // failed output checks
}

// setUps is how many times a run sets the system up; setup_s is their
// median. Only the last instance serves the window.
const setUps = 5

// runLoad sets w up, drives its traffic for the window and checks the
// outcome.
func (h *harness) runLoad(w *workload, in *inputs, seed int64, window time.Duration) (*e2e, error) {
	res := &e2e{}
	var st *stack
	for i := 0; i < setUps; i++ {
		if st != nil {
			st.kill()
		}
		var err error
		if st, err = h.setUp(w, in); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, st.setup.Seconds())
	}
	defer func() { st.kill() }()
	samples, wall, acked, err := h.drive(w, in, st, seed, window, w.clients, 0)
	if err != nil {
		return nil, err
	}
	res.samples, res.wall = samples, wall
	if res.rssMB, err = st.peakRSSMB(); err != nil {
		return nil, err
	}
	a := newAPI(st.front.url)
	if !w.job {
		res.checks = append(res.checks, checkAfterLoad(a, w.custN+acked)...)
	}
	if w.durable {
		_, failed, err := h.crashAndRecover(st, seed)
		if err != nil {
			return nil, err
		}
		res.checks = append(res.checks, failed...)
	}
	return res, nil
}

// drive runs the warm-up and then the measured window against st, with
// the given number of clients; client c walks stream number base+c. It
// returns the window's samples and wall time and every row acked,
// warm-up included.
func (h *harness) drive(w *workload, in *inputs, st *stack, seed int64, window time.Duration, clients, base int) ([]sample, time.Duration, int, error) {
	var acked atomic.Int64
	next := make([]func() []sample, clients)
	if w.job {
		// One client: the daemon's own -shards/-workers parallelism gets
		// the second core.
		a := newAPI(st.front.url)
		next[0] = func() []sample {
			job, _ := st.runJob(a, in) // a failure is the job's last sample
			return job
		}
	} else {
		for c := range next {
			a, str := newAPI(st.front.url), newStream(w, seed, base+c)
			next[c] = func() []sample {
				o := str.next()
				t := time.Now()
				rows, err := a.do(o)
				acked.Add(int64(rows))
				return []sample{{class: o.class, d: time.Since(t), rows: rows, err: err}}
			}
			// Warm-up: one block, which holds every class of the mix, so
			// the connection and every lazily built partition (discovery's
			// lattice above all) exist when the window opens.
			for range str.block {
				if s := next[c]()[0]; s.err != nil {
					return nil, 0, 0, fmt.Errorf("warm-up %s: %w", s.class, s.err)
				}
			}
		}
	}
	samples, wall := closedLoop(window, next)
	return samples, wall, int(acked.Load()), nil
}

// jobTimes sums each job's requests: upload to the delete that follows
// the verifying detection.
func jobTimes(samples []sample) []float64 {
	var out []float64
	var cur time.Duration
	for _, s := range samples {
		cur += s.d
		if s.class == "delete" {
			out = append(out, ms(cur))
			cur = 0
		}
	}
	return out
}

// checkAfterLoad verifies the quiescent state after a service window:
// no acked row is missing or doubled, and the served violation list is
// what a fresh detection finds.
func checkAfterLoad(a *api, wantTuples int) (failed []string) {
	info, err := a.info("cust")
	if err != nil {
		return []string{"after load: " + err.Error()}
	}
	if info.Tuples != wantTuples {
		failed = append(failed, fmt.Sprintf("after load: cust has %d tuples, uploaded + acked = %d", info.Tuples, wantTuples))
	}
	served, err1 := a.violations("cust")
	fresh, err2 := a.detect("cust")
	switch {
	case err1 != nil:
		failed = append(failed, "after load: "+err1.Error())
	case err2 != nil:
		failed = append(failed, "after load: "+err2.Error())
	case served != fresh:
		failed = append(failed, fmt.Sprintf("after load: served violations %v, fresh detect %v", served, fresh))
	}
	return failed
}

// crashAcks is how many single-row appends are acknowledged before the
// daemon is killed.
const crashAcks = 300

// crashAndRecover streams single-row appends at st's daemon, sends it
// SIGKILL once crashAcks of them are acknowledged, restarts it on the
// same data directory and times exec to the first 200 from /healthz.
// Every acknowledged append must be there exactly once, and replay
// must not have built an index. st.front is the restarted daemon
// afterwards.
func (h *harness) crashAndRecover(st *stack, seed int64) (time.Duration, []string, error) {
	a := newAPI(st.front.url)
	before, err := a.info("cust")
	if err != nil {
		return 0, nil, err
	}
	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Its own client number, so no row repeats one the window
		// appended.
		rng := rand.New(rand.NewSource(seed))
		for {
			row := appendRow(rng, 9, int(acked.Load()), false)
			if _, err := a.do(op{class: "append", rows: [][]string{row}}); err != nil {
				return
			}
			acked.Add(1)
		}
	}()
	for acked.Load() < crashAcks {
		select {
		case <-done:
			return 0, nil, fmt.Errorf("append stream ended after %d acks, before the kill", acked.Load())
		case <-time.After(200 * time.Microsecond):
		}
	}
	st.front.kill()
	<-done
	n := int(acked.Load())

	walBytes := int64(0)
	if fi, err := os.Stat(filepath.Join(st.dataDir, "wal.log")); err == nil {
		walBytes = fi.Size()
	}
	start := time.Now()
	d, err := h.start(st.logName+"-recovered", st.args...)
	if err != nil {
		return 0, nil, fmt.Errorf("restart on the same data dir: %w", err)
	}
	rec := time.Since(start)
	st.front, st.procs = d, []*daemon{d}
	logf("  recovery: %d acked appends, WAL %d bytes, healthy after %.1f ms", n, walBytes, ms(rec))

	var failed []string
	a = newAPI(d.url)
	after, err := a.info("cust")
	if err != nil {
		return rec, []string{"after recovery: " + err.Error()}, nil
	}
	// The kill can land after the daemon logged one more append and
	// before the client read the reply: one extra row is legitimate.
	if extra := after.Tuples - before.Tuples - n; extra < 0 {
		failed = append(failed, fmt.Sprintf("after recovery: %d acked append(s) lost", -extra))
	} else if extra > 1 {
		failed = append(failed, fmt.Sprintf("after recovery: %d rows too many; appends replayed twice", extra))
	}
	if after.IndexCache.Misses != 0 {
		failed = append(failed, fmt.Sprintf("after recovery: replay built %d indexes; it must only insert rows", after.IndexCache.Misses))
	}
	if _, err := a.detect("cust"); err != nil {
		failed = append(failed, "after recovery: "+err.Error())
	}
	return rec, failed, nil
}
