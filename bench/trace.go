package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a
// request's top span, and for the rungs of the twin ladder, which run
// beside the request, not inside it).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer buffers spans and counts in memory; nothing is written until
// the run ends. The lock is for the cluster pass, whose shard calls
// come from the coordinator's fan-out goroutines.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
	req    int // current request id
	top    int // current request's top span, parent of seam spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// request opens a new request and its top span.
func (t *tracer) request(name string) int {
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
	id := t.begin(name, 0)
	t.mu.Lock()
	t.top = id
	t.mu.Unlock()
	return id
}

// begin opens a span under parent; parent < 0 means the current
// request's top span.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.top
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// timed records fn as a span.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

func (t *tracer) count(name string, delta float64) {
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap each other (a fan-out) and
// may stick out of the parent; overlap is counted once and the excess
// is clipped.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}

// rungSelf is a ladder rung's self time: what the ops cost at this rung
// minus what they cost one rung down. The rungs are separate executions
// on twin state, so noise can put the lower rung above the upper one;
// that reads as no self time, not negative time.
func rungSelf(upper, lower float64) float64 {
	if lower >= upper {
		return 0
	}
	return upper - lower
}

// totals is every span name's summed duration in ms and span count.
type totals struct{ ms, n map[string]float64 }

func (t *tracer) totals() totals {
	out := totals{map[string]float64{}, map[string]float64{}}
	for _, s := range t.spans {
		out.ms[s.Name] += ms(s.dur())
		out.n[s.Name]++
	}
	return out
}

// mean is the mean duration of the spans called name, 0 if none.
func (t totals) mean(name string) float64 {
	if t.n[name] == 0 {
		return 0
	}
	return t.ms[name] / t.n[name]
}

// self is the mean per span called upper of what is left of it after
// the spans in lowers: a rung's self time, per op.
func (t totals) self(upper string, lowers ...string) float64 {
	if t.n[upper] == 0 {
		return 0
	}
	below := 0.0
	for _, l := range lowers {
		below += t.ms[l]
	}
	return rungSelf(t.ms[upper], below) / t.n[upper]
}

// medianOf is the median duration in ms of the spans called name.
func (t *tracer) medianOf(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, ms(s.dur()))
		}
	}
	return median(ds)
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]string  `json:"env"`
	Metrics  map[string]float64 `json:"metrics"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
