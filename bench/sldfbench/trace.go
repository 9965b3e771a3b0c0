package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one pass share
// the pass span as their ancestor; Parent 0 marks a root.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
	// Synthetic spans carry a measured duration whose placement inside the
	// parent is not known: the flow solver reports per-phase walls, not
	// phase start times, so its phases are laid end to end from the point's
	// start.
	Synthetic bool `json:"synthetic,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so instrumented code needs no
// branches of its own.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the span that decorators (store, HTTP) open their spans under;
	// the workload code, which runs its steps one after another, moves it
	// as it enters each step.
	cur int
}

// newTracer starts a tracer with room for a traced run's spans up front, so
// recording a span does not allocate inside the measured intervals.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: -1})
	return len(t.spans)
}

// beginCur opens a span under the current decorator parent.
func (t *tracer) beginCur(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	parent := t.cur
	t.mu.Unlock()
	return t.begin(parent, name)
}

// setCur moves the decorator parent.
func (t *tracer) setCur(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// count adds v to a counter of span id.
func (t *tracer) count(id int, name string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Counters == nil {
		s.Counters = map[string]float64{}
	}
	s.Counters[name] += v
}

// synthetic appends closed spans of the given durations under parent, laid
// end to end from start (nanoseconds since the tracer began).
func (t *tracer) synthetic(parent int, start int64, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, name := range names {
		end := start + int64(durs[i])
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
			Start: start, End: end, Synthetic: true})
		start = end
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// subtree returns root and every span below it, in recording order.
func subtree(spans []span, root int) []span {
	in := map[int]bool{root: true}
	var out []span
	for _, s := range spans { // children are always recorded after their parent
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another (concurrent
// store and HTTP calls); the union is subtracted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// minBeyond is the number of samples a reported tail percentile needs above
// it; with fewer, the value would rest on a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. A tail percentile
// (q > 0.5) is reported only with at least minBeyond samples above its
// rank; otherwise ok is false. The median is always reported: it is the
// central value, not a tail estimate.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	if q > 0.5 && len(s)-1-rank < minBeyond {
		return 0, false
	}
	return s[rank], true
}

// median is the 0.5 nearest-rank percentile (0 for no samples).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
