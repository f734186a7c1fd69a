package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer: a name, its interval relative to the
// start of the run, the span that caused it (-1 for a root) and the verdict
// it belongs to.
type Span struct {
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Parent  int           `json:"parent"`
	Verdict int           `json:"verdict"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. Until Enable is called it
// hands out id -1 and records nothing, so the untraced path costs one load.
type Tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a disabled tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Enable starts recording spans.
func (t *Tracer) Enable() { t.on.Store(true) }

// Begin opens a span and returns its id (-1 when tracing is off).
func (t *Tracer) Begin(name string, parent, verdict int) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Verdict: verdict})
	return len(t.spans) - 1
}

// End closes span id.
func (t *Tracer) End(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span whose duration was reported by the layer itself rather
// than timed here; it is placed to end at end.
func (t *Tracer) Add(name string, parent, verdict int, end, dur time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: end - dur, End: end, Parent: parent, Verdict: verdict})
	t.mu.Unlock()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes every span as JSON, once, when the run ends.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's duration minus the part of its interval that
// its children cover. Overlapping children (shards on two workers) count
// once; children are clipped to the parent's interval.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		out[i] = s.Dur() - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curB {
			curB = iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// LayerBreakdown sums self time per span name under the roots named root,
// and reports how much of the roots' wall time their descendants account
// for (1 - root self time / root wall time).
type LayerBreakdown struct {
	Self     map[string]time.Duration
	Wall     time.Duration
	Coverage float64
	Dominant string
}

// Breakdown attributes the wall time of every root span named root to the
// layers below it.
func Breakdown(spans []Span, root string) LayerBreakdown {
	self := SelfTimes(spans)
	under := make([]bool, len(spans))
	b := LayerBreakdown{Self: map[string]time.Duration{}}
	var rootSelf time.Duration
	for i, s := range spans {
		switch {
		case s.Parent < 0 && s.Name == root:
			under[i] = true
			b.Wall += s.Dur()
			rootSelf += self[i]
		case s.Parent >= 0 && under[s.Parent]:
			under[i] = true
			b.Self[s.Name] += self[i]
		}
	}
	if b.Wall > 0 {
		b.Coverage = 1 - float64(rootSelf)/float64(b.Wall)
	}
	var best time.Duration
	for name, d := range b.Self {
		if d > best || (d == best && name < b.Dominant) {
			best, b.Dominant = d, name
		}
	}
	return b
}

// Durations returns the wall times of every span with the given name.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.Dur().Seconds())
		}
	}
	return out
}
