// Package trace analyses per-cycle energy traces recorded by the simulator
// (internal/gang records them): the paper's every-N-cycles bucketing
// (Figure 6), differential traces between two runs (Figures 7-11), overhead
// traces (Figure 12), windows, summary statistics, and CSV export.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// NoPC marks cycles whose EX stage held a bubble.
const NoPC uint32 = 0xffffffff

// Trace is a per-cycle energy record of one run.
type Trace struct {
	// Totals[i] is the energy (pJ) of cycle i.
	Totals []float64
	// PCs[i] is the program counter of the instruction in EX during cycle i,
	// or NoPC for a bubble. Used to map program regions to cycle windows.
	PCs []uint32
}

// Len returns the number of recorded cycles.
func (t *Trace) Len() int { return len(t.Totals) }

// Bucket aggregates the trace into buckets of width cycles, returning the
// mean energy of each bucket — the paper's "every 10 cycles" view (Fig. 6).
// A trailing partial bucket is averaged over its actual size.
func Bucket(totals []float64, width int) []float64 {
	if width <= 0 {
		return nil
	}
	out := make([]float64, 0, (len(totals)+width-1)/width)
	for i := 0; i < len(totals); i += width {
		end := i + width
		if end > len(totals) {
			end = len(totals)
		}
		var sum float64
		for _, v := range totals[i:end] {
			sum += v
		}
		out = append(out, sum/float64(end-i))
	}
	return out
}

// ErrLengthMismatch reports differential traces over runs of unequal length.
var ErrLengthMismatch = errors.New("trace: traces have different cycle counts")

// Diff returns the pointwise difference a-b of two cycle-aligned traces —
// the paper's differential energy profile (Figures 7-11). The runs must be
// cycle-aligned, which holds whenever they execute the same instruction path.
func Diff(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(a), len(b))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// Stats summarises a series.
type Stats struct {
	N         int
	Mean      float64
	Min, Max  float64
	MaxAbs    float64
	RMS       float64
	NonZeroes int // samples with |v| > 1e-9
}

// Summarize computes summary statistics of a series.
func Summarize(v []float64) Stats {
	s := Stats{N: len(v)}
	if len(v) == 0 {
		return s
	}
	s.Min, s.Max = v[0], v[0]
	var sum, sq float64
	for _, x := range v {
		sum += x
		sq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if a := math.Abs(x); a > s.MaxAbs {
			s.MaxAbs = a
		}
		if math.Abs(x) > 1e-9 {
			s.NonZeroes++
		}
	}
	s.Mean = sum / float64(len(v))
	s.RMS = math.Sqrt(sq / float64(len(v)))
	return s
}

// Window is a half-open cycle interval [Start, End).
type Window struct {
	Start, End int
}

// Len returns the window length in cycles.
func (w Window) Len() int { return w.End - w.Start }

// Clamp bounds the window to the first n cycles, so a window located on a
// full probe run can be applied to budget-limited runs. A window entirely
// past the bound comes back empty (Len() <= 0).
func (w Window) Clamp(n int) Window {
	if w.End > n {
		w.End = n
	}
	if w.Start > w.End {
		w.Start = w.End
	}
	return w
}

// FindWindow locates the cycle window during which execution stayed within
// the program region [loPC, hiPC): the first and last+1 cycles whose EX PC
// falls inside. ok is false when the region was never executed.
func (t *Trace) FindWindow(loPC, hiPC uint32) (Window, bool) {
	start, end := -1, -1
	for i, pc := range t.PCs {
		if pc != NoPC && pc >= loPC && pc < hiPC {
			if start < 0 {
				start = i
			}
			end = i + 1
		}
	}
	if start < 0 {
		return Window{}, false
	}
	return Window{start, end}, true
}

// Slice returns the energy samples of a window.
func (t *Trace) Slice(w Window) []float64 {
	if w.Start < 0 || w.End > len(t.Totals) || w.Start > w.End {
		return nil
	}
	return t.Totals[w.Start:w.End]
}

// TotalPJ returns the sum of all samples.
func TotalPJ(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum
}

// WriteCSV writes aligned columns as CSV with the given headers. Columns may
// have different lengths; missing cells are left empty.
func WriteCSV(w io.Writer, headers []string, cols ...[]float64) error {
	if len(headers) != len(cols) {
		return fmt.Errorf("trace: %d headers for %d columns", len(headers), len(cols))
	}
	for i, h := range headers {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, h); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	rows := 0
	for _, c := range cols {
		if len(c) > rows {
			rows = len(c)
		}
	}
	for r := 0; r < rows; r++ {
		for i, c := range cols {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if r < len(c) {
				if _, err := fmt.Fprintf(w, "%g", c[r]); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Series generates the x-axis for a bucketed series: the starting cycle of
// each bucket.
func Series(n, width int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i * width)
	}
	return out
}
