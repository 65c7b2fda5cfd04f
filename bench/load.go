package main

import (
	"sort"
	"sync"
	"time"
)

// sample is one completed unit of work as its caller saw it.
type sample struct {
	class string
	d     time.Duration
	end   time.Duration // when it completed, since the window opened
	rows  int           // rows the daemon acknowledged
	err   error
}

// closedLoop runs the given clients side by side. Each keeps one
// request in flight: it takes the next op of its stream, waits for the
// reply, and only then takes another, until the window has passed.
// That is how this service is called (pipeline stages and a UI that
// wait for their answer), so a slower daemon is offered less load and
// no queue builds outside it. A unit of work in flight when the window
// ends is completed and counted, and the returned wall time includes
// it. A unit is one request, or all the requests of one batch job.
func closedLoop(window time.Duration, clients []func() []sample) ([]sample, time.Duration) {
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(window)
	for c, next := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				unit := next()
				for i := range unit {
					unit[i].end = time.Since(start)
				}
				per[c] = append(per[c], unit...)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// tally is what a window's samples reduce to.
type tally struct {
	attempted, failed, rows int
	firstErr                error
	byClass                 map[string][]time.Duration // successful ops only, sorted
}

func tallyOf(samples []sample) *tally {
	t := &tally{byClass: map[string][]time.Duration{}}
	for _, s := range samples {
		t.attempted++
		if s.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = s.err
			}
			continue
		}
		t.rows += s.rows
		t.byClass[s.class] = append(t.byClass[s.class], s.d)
	}
	for _, ds := range t.byClass {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	return t
}

// percentile returns the p-th percentile (0..100) of sorted durations
// by nearest rank, in milliseconds; 0 for an empty sample.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.5)
	rank = min(max(rank, 1), len(sorted))
	return ms(sorted[rank-1])
}

// supported reports whether a sample of n supports the p-th
// percentile: at least ten samples must lie beyond it, so p50 needs 20
// samples and p95 needs 200.
func supported(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10
}

// pctIf is percentile, or 0 when the sample does not support it.
func pctIf(sorted []time.Duration, p float64) float64 {
	if !supported(len(sorted), p) {
		return 0
	}
	return percentile(sorted, p)
}

// slices is how many equal parts a window is cut into for throughput.
const slices = 10

// sliceRate is a window's throughput as the median over its slices of
// the work done per second in the slice. On a shared machine a
// neighbour's burst slows a few seconds of a run; the whole-window mean
// carries every such burst into the result, the median slice does not.
//
// An op's work (weight(s): 1 for requests, its row count for rows) is
// spread evenly over the time the op took, so a slice shorter than a
// batch job is credited the part of the job that ran inside it. In a
// closed loop each client's ops tile its timeline, which makes the
// slice rates add up to the whole-window rate.
func sliceRate(samples []sample, wall time.Duration, weight func(sample) float64) float64 {
	width := wall / slices
	work := make([]float64, slices)
	for _, s := range samples {
		w := weight(s)
		if s.err != nil || w == 0 {
			continue
		}
		if s.d <= 0 {
			work[min(int(s.end/width), slices-1)] += w
			continue
		}
		begin := s.end - s.d
		for i := max(0, int(begin/width)); i < slices && time.Duration(i)*width < s.end; i++ {
			lo, hi := max(begin, time.Duration(i)*width), min(s.end, time.Duration(i+1)*width)
			work[i] += w * float64(hi-lo) / float64(s.d)
		}
	}
	for i := range work {
		work[i] /= width.Seconds()
	}
	return median(work)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of a few float measurements (set-up times, job times).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
