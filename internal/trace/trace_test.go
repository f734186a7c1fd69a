package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestBucket(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Bucket(in, 3)
	want := []float64{2, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
	if Bucket(in, 0) != nil {
		t.Error("width 0 should return nil")
	}
	if got := Bucket(nil, 10); len(got) != 0 {
		t.Errorf("empty input buckets = %v", got)
	}
}

func TestDiff(t *testing.T) {
	d, err := Diff([]float64{5, 3}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 3 || d[1] != -1 {
		t.Errorf("diff = %v", d)
	}
	if _, err := Diff([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{-2, 0, 2, 4})
	if s.N != 4 || s.Mean != 1 || s.Min != -2 || s.Max != 4 || s.MaxAbs != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.NonZeroes != 3 {
		t.Errorf("nonzeroes = %d, want 3", s.NonZeroes)
	}
	wantRMS := math.Sqrt((4.0 + 0 + 4 + 16) / 4)
	if math.Abs(s.RMS-wantRMS) > 1e-12 {
		t.Errorf("rms = %g, want %g", s.RMS, wantRMS)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty stats = %+v", z)
	}
}

func TestSlice(t *testing.T) {
	tr := Trace{Totals: []float64{1, 2, 3, 4, 5, 6}}
	w := Window{1, 5}
	if w.Len() != 4 {
		t.Errorf("len = %d", w.Len())
	}
	got := tr.Slice(w)
	if len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Errorf("slice = %v", got)
	}
	if tr.Slice(Window{-1, 2}) != nil || tr.Slice(Window{4, 2}) != nil {
		t.Error("invalid windows should slice to nil")
	}
}

func TestTotalPJ(t *testing.T) {
	if got := TotalPJ([]float64{1.5, 2.5, -1}); got != 3 {
		t.Errorf("TotalPJ = %g", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var b bytes.Buffer
	err := WriteCSV(&b, []string{"cycle", "a", "b"},
		[]float64{0, 10}, []float64{1.5, 2.5}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	want := "cycle,a,b\n0,1.5,7\n10,2.5,\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
	if err := WriteCSV(&b, []string{"x"}, nil, nil); err == nil {
		t.Error("mismatched header count accepted")
	}
}

func TestSeries(t *testing.T) {
	s := Series(3, 10)
	if len(s) != 3 || s[0] != 0 || s[2] != 20 {
		t.Errorf("series = %v", s)
	}
}

func TestCSVIsParsable(t *testing.T) {
	var b bytes.Buffer
	if err := WriteCSV(&b, []string{"v"}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Errorf("lines = %v", lines)
	}
}

func TestPlot(t *testing.T) {
	series := make([]float64, 1000)
	for i := range series {
		series[i] = float64(i % 100)
	}
	out := Plot(series, 60, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 { // height rows + axis + label
		t.Fatalf("plot has %d lines, want 10:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Error("plot has no marks")
	}
	if !strings.Contains(out, "91.") {
		t.Errorf("plot missing max label:\n%s", out)
	}
	// Flat series must not divide by zero.
	flat := Plot([]float64{5, 5, 5, 5}, 10, 4)
	if !strings.Contains(flat, "5.00") {
		t.Errorf("flat plot:\n%s", flat)
	}
	if Plot(nil, 10, 4) == "" {
		t.Error("empty plot should still render a message")
	}
}

func TestDownsample(t *testing.T) {
	got := downsample([]float64{1, 1, 3, 3, 5, 5}, 3)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("downsample = %v, want %v", got, want)
		}
	}
	// n >= len: identity copy.
	id := downsample([]float64{1, 2}, 5)
	if len(id) != 2 || id[0] != 1 || id[1] != 2 {
		t.Errorf("identity downsample = %v", id)
	}
}
