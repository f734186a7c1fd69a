package dpa

import (
	"math"
	"math/bits"

	"desmask/internal/aes"
	"desmask/internal/des"
	"desmask/internal/leakstat"
	"desmask/internal/trace"
)

// The full-width reference: the class-table core as it was before the
// table dropped constant samples. It keeps every sample of the window in
// its segments, moments, rows and output, so each guess's weighted row sum
// runs over the whole window. TestCompactTableMatchesFullWidth holds the
// compacted table to it bit for bit.
type fullTable struct {
	stat  Stat
	segs  [][]float64
	mean  []float64
	m2    []float64
	ymean []float64

	rowOf []int
	cls   []int
	cnt   []float64
	rows  []float64
	w     []float64
	out   []float64
}

func newFullTable(traces [][]float64, win trace.Window, classes int, stat Stat) *fullTable {
	n := win.Len()
	t := &fullTable{
		stat:  stat,
		segs:  make([][]float64, len(traces)),
		rowOf: make([]int, classes),
		rows:  make([]float64, min(len(traces), classes)*n),
		out:   make([]float64, n),
	}
	x := leakstat.NewVec(n)
	for i, tr := range traces {
		t.segs[i] = tr[win.Start:win.End]
		x.AddTrace(t.segs[i])
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

func (t *fullTable) fill(class func(i int) int) {
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

func (t *fullTable) guess(g int, h func(g, c int) float64) ([]float64, float64) {
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
		if d := hM2 * t.m2[j]; d > 0 {
			out[j] = cov / math.Sqrt(d)
		} else {
			out[j] = 0
		}
	}
	return out, hM2
}

func (t *fullTable) rank(scores []float64, h func(g, c int) float64) (best, runnerUp GuessScore, degenerate int) {
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

// fullAttackAll is attackAll on the full-width table.
func fullAttackAll(ts *TraceSet, stat Stat, bit int) [8]BoxResult {
	t := newFullTable(ts.Traces, ts.Window, 64, stat)
	var out [8]BoxResult
	for box := range out {
		t.fill(func(i int) int { return int(des.FirstRoundSBoxInput(ts.Plaintexts[i], box)) })
		r := BoxResult{Box: box, Bit: bit}
		r.Best, r.RunnerUp, r.Degenerate = t.rank(r.AllScores[:], predict(stat, box, bit))
		out[box] = r
	}
	return out
}

// fullGuessTrace is the one-guess view on the full-width table, with the
// bit-1 partition size DifferenceOfMeansDetail reports.
func fullGuessTrace(ts *TraceSet, stat Stat, box, bit int, guess uint32) (out []float64, n1 int) {
	t := newFullTable(ts.Traces, ts.Window, 64, stat)
	t.fill(func(i int) int { return int(des.FirstRoundSBoxInput(ts.Plaintexts[i], box)) })
	h := predict(stat, box, bit)
	out, _ = t.guess(int(guess), h)
	for k, c := range t.cls {
		if h(int(guess), c) == 1 {
			n1 += int(t.cnt[k])
		}
	}
	return out, n1
}

// fullAESCPAByte is AESCPAByte on the full-width table.
func fullAESCPAByte(ts *AESTraceSet, byteIdx int) (best, runnerUp uint32, bestPeak, runnerPeak float64) {
	if len(ts.Traces) == 0 || ts.Window.Len() <= 0 {
		return 0, 0, 0, 0
	}
	t := newFullTable(ts.Traces, ts.Window, 256, StatCPA)
	t.fill(func(i int) int { return int(byte(ts.Plaintexts[i][byteIdx])) })
	var scores [256]float64
	b, r, _ := t.rank(scores[:], func(g, c int) float64 { return float64(bits.OnesCount8(aes.SBox[c^g])) })
	return b.Guess, r.Guess, b.Peak, r.Peak
}

// varying returns the window offsets the compact table keeps.
func varying(traces [][]float64, win trace.Window) []int {
	var t classTable
	t.varying(traces, win)
	return t.keep
}
