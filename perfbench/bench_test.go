package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func span(name string, start, end, parent int) Span {
	return Span{Name: name, Start: ms(start), End: ms(end), Parent: parent}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		span("verdict", 0, 100, -1),
		span("shard", 10, 40, 0), // overlaps the next shard: the union counts once
		span("shard", 30, 60, 0),
		span("exec", 15, 20, 1),  // grandchild: only its parent loses it
		span("fold", 90, 120, 0), // runs past the root: clipped to [90,100)
	}
	got := SelfTimes(spans)
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 5), ms(30), ms(5), ms(30)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeBackToBackChildren(t *testing.T) {
	spans := []Span{
		span("verdict", 0, 30, -1),
		span("a", 0, 10, 0),
		span("b", 10, 20, 0),
		span("c", 20, 30, 0),
	}
	if got := SelfTimes(spans)[0]; got != 0 {
		t.Fatalf("root fully covered by back-to-back children: self %v, want 0", got)
	}
	b := Breakdown(spans, "verdict")
	if b.Coverage != 1 || b.Wall != ms(30) || b.Self["a"] != ms(10) {
		t.Fatalf("breakdown %+v", b)
	}
}

func TestBreakdownOnlyCountsNamedRoots(t *testing.T) {
	spans := []Span{
		span("verdict", 0, 100, -1),
		span("leakstat.shard", 0, 80, 0),
		span("sim.exec", 100, 200, -1), // a replay outside any verdict
		span("verdict", 200, 300, -1),
		span("leakstat.shard", 200, 260, 3),
		span("leakstat.fold", 260, 290, 3),
	}
	b := Breakdown(spans, "verdict")
	if b.Wall != ms(200) {
		t.Fatalf("wall %v, want 200ms", b.Wall)
	}
	if got, want := b.Coverage, 1-30.0/200; got != want {
		t.Fatalf("coverage %v, want %v", got, want)
	}
	if _, ok := b.Self["sim.exec"]; ok {
		t.Fatal("a span outside the verdicts was attributed to them")
	}
	if b.Dominant != "leakstat.shard" || b.Self["leakstat.shard"] != ms(140) {
		t.Fatalf("dominant %s self %v", b.Dominant, b.Self)
	}
}

func TestTailPercentile(t *testing.T) {
	if _, ok := TailPercentile(make([]float64, tailBeyond)); ok {
		t.Fatal("a tail with fewer than tailBeyond samples beyond it")
	}
	eleven := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 11, 10}
	tl, ok := TailPercentile(eleven)
	if !ok || tl.Value != 1 || tl.Beyond != 10 || tl.N != 11 {
		t.Fatalf("11 samples: %+v ok=%v, want the minimum with 10 beyond", tl, ok)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted order
	}
	tl, ok = TailPercentile(hundred)
	if !ok || tl.Value != 90 || tl.Percentile != 90 || tl.Beyond != 10 {
		t.Fatalf("100 samples: %+v ok=%v, want p90 = 90", tl, ok)
	}
	if hundred[0] != 100 {
		t.Fatal("TailPercentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 || Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name against [A-Za-z0-9_.-]+ and that
// BENCHMARK.json declares exactly the metrics this program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if !nameRE.MatchString(w.Name) || workloads[w.Name] == nil {
			t.Errorf("workload %q: bad name or not implemented", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// TestTracerConcurrent opens and closes spans from several goroutines, as
// shard workers and HTTP handlers do; run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	if id := tr.Begin("off", -1, 0); id != -1 {
		t.Fatalf("disabled tracer handed out span %d", id)
	}
	tr.Enable()
	root := tr.Begin("verdict", -1, 0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.End(tr.Begin("leakstat.shard", root, 0))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 401 {
		t.Fatalf("%d spans, want 401", len(spans))
	}
	if b := Breakdown(spans, "verdict"); b.Dominant != "leakstat.shard" || b.Coverage < 0 || b.Coverage > 1 {
		t.Fatalf("breakdown %+v", b)
	}
}
