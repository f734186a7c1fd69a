package dpa

import (
	"math"
	"math/bits"

	"desmask/internal/des"
	"desmask/internal/leakstat"
	"desmask/internal/trace"
)

// Every attack in this package runs on one class-statistics core. A
// round-1 hypothesis about S-box b depends on a trace only through its
// class: the 6-bit chunk c = des.FirstRoundSBoxInput(pt, b) (for AES, the
// plaintext byte). Guess g predicts one value h_g(c) per class, so its
// covariance with the traces is a weighted sum of per-class sums:
//
//	Z_c[j]   = Σ_{i in c} (x_ij - mean_j)        n_c = |c|
//	cov_g[j] = Σ_c (h_g(c) - h̄_g) · Z_c[j]      hM2_g = Σ_c n_c · (h_g(c) - h̄_g)²
//
// The per-sample mean and M2 are computed once per trace set, each box
// takes one pass over the traces to fill the table, and each guess then
// touches only the table's non-empty rows. The distinguishers differ only
// in how they read cov:
//
//   - CPA: r_g[j] = cov_g[j] / sqrt(hM2_g · M2_j);
//   - DoM: h is one predicted bit, and cov_g / hM2_g is exactly the
//     difference of the bit-1 and bit-0 partition means;
//   - CPA2: CPA on y = (x - mean)². y's mean and M2 come from a Welford pass
//     over y, not from M4 - M2²/m, which cancels catastrophically on the
//     two-level samples a noise-free simulator produces.
//
// The table holds only the samples that vary. At a sample where every
// trace holds the same finite value c, Welford's mean is exactly c, every
// centered value is +0 and so is every row sum; CPA and CPA2 then score +0
// through their d > 0 guard and DoM scores +0/hM2 = +0. Dropping such a
// sample and writing +0 back (guessTrace) gives the same bits. M2 == 0 is
// not the same test: two traces one ulp apart can round M2 to 0 while their
// centered values, and so DoM, are not zero.
type classTable struct {
	stat  Stat
	keep  []int       // window offset of each varying sample, in order
	segs  [][]float64 // each trace's varying samples
	mean  []float64   // per-sample mean of x
	m2    []float64   // per-sample M2 of the attacked variable: x, or y for CPA2
	ymean []float64   // per-sample mean of y; nil unless CPA2

	rowOf []int     // class -> row index + 1; 0 marks a class with no row
	cls   []int     // row -> class
	cnt   []float64 // row -> n_c
	rows  []float64 // row-major Z_c, one buffer reused across boxes
	w     []float64 // one guess's centered prediction, per row
	out   []float64 // one guess's statistic, per varying sample
}

// newClassTable keeps the window's varying samples of every trace and
// makes the guess-independent passes over them: mean and M2 of x, and for
// CPA2 the Welford pass over y.
func newClassTable(traces [][]float64, win trace.Window, classes int, stat Stat) *classTable {
	t := &classTable{
		stat:  stat,
		keep:  varying(traces, win),
		segs:  make([][]float64, len(traces)),
		rowOf: make([]int, classes),
	}
	n := len(t.keep)
	t.rows = make([]float64, min(len(traces), classes)*n)
	t.out = make([]float64, n)
	x := leakstat.NewVec(n)
	buf := make([]float64, len(traces)*n)
	for i, tr := range traces {
		seg := buf[i*n : (i+1)*n]
		for k, j := range t.keep {
			seg[k] = tr[win.Start+j]
		}
		t.segs[i] = seg
		x.AddTrace(seg)
	}
	t.mean, t.m2 = x.Mean, x.M2
	if stat == StatCPA2 {
		y := leakstat.NewVec(n)
		for _, seg := range t.segs {
			for j, v := range seg {
				d := v - t.mean[j]
				t.out[j] = d * d
			}
			y.AddTrace(t.out)
		}
		t.ymean, t.m2 = y.Mean, y.M2
	}
	return t
}

// varying returns the window offsets of the samples where some trace
// differs from the first, or where the first is not finite (x - x is then
// NaN, and the centered values with it).
func varying(traces [][]float64, win trace.Window) []int {
	vary := make([]bool, win.Len())
	if len(traces) > 0 {
		first := traces[0][win.Start:win.End]
		for j, v := range first {
			vary[j] = v-v != 0
		}
		for _, tr := range traces[1:] {
			for j, v := range tr[win.Start:win.End] {
				if v != first[j] {
					vary[j] = true
				}
			}
		}
	}
	var keep []int
	for j, v := range vary {
		if v {
			keep = append(keep, j)
		}
	}
	return keep
}

// fill regroups the table by class(i), the class of trace i, in one pass
// over the traces.
func (t *classTable) fill(class func(i int) int) {
	n := len(t.out)
	clear(t.rows[:len(t.cls)*n])
	for _, c := range t.cls {
		t.rowOf[c] = 0
	}
	t.cls, t.cnt = t.cls[:0], t.cnt[:0]
	for i, seg := range t.segs {
		c := class(i)
		k := t.rowOf[c] - 1
		if k < 0 {
			k = len(t.cls)
			t.rowOf[c] = k + 1
			t.cls = append(t.cls, c)
			t.cnt = append(t.cnt, 0)
		}
		t.cnt[k]++
		row := t.rows[k*n : (k+1)*n]
		if t.ymean == nil {
			for j, v := range seg {
				row[j] += v - t.mean[j]
			}
		} else {
			for j, v := range seg {
				d := v - t.mean[j]
				row[j] += d*d - t.ymean[j]
			}
		}
	}
}

// guess returns guess g's statistic at every varying sample, where h(g, c)
// is its prediction for class c, and the prediction's hM2. hM2 == 0 means
// the prediction is constant over the traces: the guess is degenerate,
// carries no signal and scores zero. The slice is reused by the next call.
func (t *classTable) guess(g int, h func(g, c int) float64) ([]float64, float64) {
	out := t.out
	clear(out)
	var sum, hM2 float64
	t.w = t.w[:0]
	for k, c := range t.cls {
		t.w = append(t.w, h(g, c))
		sum += t.cnt[k] * t.w[k]
	}
	for k := range t.w {
		t.w[k] -= sum / float64(len(t.segs))
		hM2 += t.cnt[k] * t.w[k] * t.w[k]
	}
	if hM2 == 0 {
		return out, 0
	}
	n := len(out)
	k := 0
	// Four rows per sweep over out cut its loads and stores fourfold.
	for ; k+4 <= len(t.w); k += 4 {
		w0, w1, w2, w3 := t.w[k], t.w[k+1], t.w[k+2], t.w[k+3]
		r0 := t.rows[k*n : (k+1)*n]
		r1 := t.rows[(k+1)*n : (k+2)*n][:len(r0)]
		r2 := t.rows[(k+2)*n : (k+3)*n][:len(r0)]
		r3 := t.rows[(k+3)*n : (k+4)*n][:len(r0)]
		out := out[:len(r0)]
		for j, z := range r0 {
			out[j] += w0*z + w1*r1[j] + w2*r2[j] + w3*r3[j]
		}
	}
	for ; k < len(t.w); k++ {
		w := t.w[k]
		for j, z := range t.rows[k*n : (k+1)*n] {
			out[j] += w * z
		}
	}
	if t.stat == StatDoM {
		for j := range out {
			out[j] /= hM2
		}
		return out, hM2
	}
	for j, cov := range out {
		// The product is guarded as a whole: masked traces make whole
		// stretches of samples energy-constant (M2 == 0), where the
		// division would yield NaN and poison every peak scan downstream.
		if d := hM2 * t.m2[j]; d > 0 {
			out[j] = cov / math.Sqrt(d)
		} else {
			out[j] = 0
		}
	}
	return out, hM2
}

// rank is the scoring loop of every attack: it scores guesses 0 to
// len(scores)-1 by their peak |statistic|, keeps the best two (ties go to
// the lower guess) and counts the degenerate guesses.
func (t *classTable) rank(scores []float64, h func(g, c int) float64) (best, runnerUp GuessScore, degenerate int) {
	best.Peak, runnerUp.Peak = -1, -1
	for g := range scores {
		out, hM2 := t.guess(g, h)
		if hM2 == 0 {
			degenerate++
		}
		peak := 0.0
		for _, v := range out {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		scores[g] = peak
		s := GuessScore{Guess: uint32(g), Peak: peak}
		switch {
		case peak > best.Peak:
			best, runnerUp = s, best
		case peak > runnerUp.Peak:
			runnerUp = s
		}
	}
	return best, runnerUp, degenerate
}

// desTable builds the core over a DES trace set.
func desTable(ts *TraceSet, stat Stat) *classTable {
	return newClassTable(ts.Traces, ts.Window, 64, stat)
}

// predict is the round-1 power model of S-box box: the output bit `bit`
// (0-3, MSB first) for DoM, the output's Hamming weight for CPA and CPA2.
func predict(stat Stat, box, bit int) func(g, c int) float64 {
	if stat == StatDoM {
		return func(g, c int) float64 { return float64(des.SBoxAt(box, uint32(c^g)) >> (3 - bit) & 1) }
	}
	return func(g, c int) float64 { return float64(bits.OnesCount8(des.SBoxAt(box, uint32(c^g)))) }
}

// fillBox groups the traces by S-box box's round-1 input chunk.
func (t *classTable) fillBox(pts []uint64, box int) {
	t.fill(func(i int) int { return int(des.FirstRoundSBoxInput(pts[i], box)) })
}

// attackBox scores all 64 guesses for S-box box; bit labels the result
// and, for DoM, selects the predicted output bit.
func (t *classTable) attackBox(pts []uint64, box, bit int) BoxResult {
	t.fillBox(pts, box)
	r := BoxResult{Box: box, Bit: bit}
	r.Best, r.RunnerUp, r.Degenerate = t.rank(r.AllScores[:], predict(t.stat, box, bit))
	return r
}

// attackAll attacks all eight S-boxes over one class table.
func attackAll(ts *TraceSet, stat Stat, bit int) [8]BoxResult {
	t := desTable(ts, stat)
	var out [8]BoxResult
	for box := range out {
		out[box] = t.attackBox(ts.Plaintexts, box, bit)
	}
	return out
}

// guessTrace is the one-guess view of the core: guess's statistic for
// S-box box at every sample of the window, with the table it was read from.
// Every constant sample scores +0 (see the drop rule above).
func guessTrace(ts *TraceSet, stat Stat, box, bit int, guess uint32) ([]float64, *classTable) {
	t := desTable(ts, stat)
	t.fillBox(ts.Plaintexts, box)
	out, _ := t.guess(int(guess), predict(stat, box, bit))
	full := make([]float64, ts.Window.Len())
	for k, j := range t.keep {
		full[j] = out[k]
	}
	return full, t
}
