package dpa

import (
	"math"
	"math/bits"

	"desmask/internal/aes"
	"desmask/internal/des"
	"desmask/internal/leakstat"
)

// The reference oracle: the per-trace formulas the attacks used before they
// moved onto the class table. Each guess recomputes its statistic over the
// raw traces, which makes it slow and obviously right. The equivalence
// tests hold the class-table core to it.

// refMoments are the guess-independent per-sample statistics: the raw
// traces' mean and M2, and the mean and M2 of y = (x - mean)^2. The old
// formulas recomputed them for every guess; computing them once per trace
// set gives the same bits. The y pass steps its mean by 1/(i+1), a Welford
// update: the old code stepped it by a constant 1/m, so its "mean" lagged
// the true mean and its M2 overstated y's spread.
type refMoments struct {
	raw        *leakstat.Vec
	yMean, yM2 []float64
}

func newRefMoments(ts *TraceSet) refMoments {
	n := ts.Window.Len()
	mo := refMoments{raw: leakstat.NewVec(n), yMean: make([]float64, n), yM2: make([]float64, n)}
	for _, tr := range ts.Traces {
		mo.raw.AddTrace(tr[ts.Window.Start:ts.Window.End])
	}
	for i, tr := range ts.Traces {
		inv := 1 / float64(i+1)
		for j, x := range tr[ts.Window.Start:ts.Window.End] {
			d := x - mo.raw.Mean[j]
			y := d * d
			dy := y - mo.yMean[j]
			mo.yMean[j] += dy * inv
			mo.yM2[j] += dy * (y - mo.yMean[j])
		}
	}
	return mo
}

// refDifferenceOfMeansDetail takes each group's mean by the Welford mean
// update of leakstat.Vec (mean += (x - mean)/n), written out inline because
// the group M2 the Vec would also keep is never read.
func refDifferenceOfMeansDetail(ts *TraceSet, box, bit int, guess uint32) (dom []float64, n1, n0 int) {
	n := ts.Window.Len()
	mean1, mean0 := make([]float64, n), make([]float64, n)
	for i, tr := range ts.Traces {
		mean, k := mean0, &n0
		if des.FirstRoundSBoxOutput(ts.Plaintexts[i], box, guess)>>(3-bit)&1 == 1 {
			mean, k = mean1, &n1
		}
		*k++
		inv := 1 / float64(*k)
		for j, x := range tr[ts.Window.Start:ts.Window.End] {
			mean[j] += (x - mean[j]) * inv
		}
	}
	dom = make([]float64, n)
	if n1 == 0 || n0 == 0 {
		return dom, n1, n0
	}
	for j := range dom {
		dom[j] = mean1[j] - mean0[j]
	}
	return dom, n1, n0
}

func refCorrelationTrace(ts *TraceSet, mo refMoments, box int, guess uint32) []float64 {
	n := ts.Window.Len()
	m := len(ts.Traces)
	if m == 0 || n <= 0 {
		return nil
	}
	h := make([]float64, m)
	var hAcc leakstat.Acc
	for i, pt := range ts.Plaintexts {
		h[i] = float64(bits.OnesCount8(des.FirstRoundSBoxOutput(pt, box, guess)))
		hAcc.Add(h[i])
	}
	out := make([]float64, n)
	if hAcc.M2 == 0 {
		return out
	}
	v := mo.raw
	cov := make([]float64, n)
	for i, tr := range ts.Traces {
		hi := h[i] - hAcc.Mean
		seg := tr[ts.Window.Start:ts.Window.End]
		for j, x := range seg {
			cov[j] += hi * (x - v.Mean[j])
		}
	}
	for j := range out {
		if d := hAcc.M2 * v.M2[j]; d > 0 {
			out[j] = cov[j] / math.Sqrt(d)
		}
	}
	return out
}

// refCorrelationTrace2 centers y in its covariance instead of relying on
// sum(h - mean(h)) == 0 as the old formula did: on a balanced two-level
// sample y is constant but for rounding, and the uncentered sum turned that
// rounding into correlations as large as 0.5.
func refCorrelationTrace2(ts *TraceSet, mo refMoments, box int, guess uint32) []float64 {
	n := ts.Window.Len()
	m := len(ts.Traces)
	if m == 0 || n <= 0 {
		return nil
	}
	h := make([]float64, m)
	var hAcc leakstat.Acc
	for i, pt := range ts.Plaintexts {
		h[i] = float64(bits.OnesCount8(des.FirstRoundSBoxOutput(pt, box, guess)))
		hAcc.Add(h[i])
	}
	out := make([]float64, n)
	if hAcc.M2 == 0 {
		return out
	}
	raw, yMean, yM2 := mo.raw, mo.yMean, mo.yM2
	cov := make([]float64, n)
	for i, tr := range ts.Traces {
		hi := h[i] - hAcc.Mean
		for j, x := range tr[ts.Window.Start:ts.Window.End] {
			d := x - raw.Mean[j]
			cov[j] += hi * (d*d - yMean[j])
		}
	}
	for j := range out {
		if d := hAcc.M2 * yM2[j]; d > 0 {
			out[j] = cov[j] / math.Sqrt(d)
		}
	}
	return out
}

// refAttackSBox is the old guess/peak/best/runner-up loop over one of the
// reference distinguishers.
func refAttackSBox(ts *TraceSet, mo refMoments, stat Stat, box int) BoxResult {
	bit := map[Stat]int{StatDoM: 0, StatCPA: -1, StatCPA2: -2}[stat]
	res := BoxResult{Box: box, Bit: bit, Best: GuessScore{Peak: -1}, RunnerUp: GuessScore{Peak: -1}}
	for guess := uint32(0); guess < 64; guess++ {
		var tr []float64
		switch stat {
		case StatDoM:
			var n1, n0 int
			tr, n1, n0 = refDifferenceOfMeansDetail(ts, box, 0, guess)
			if n1 == 0 || n0 == 0 {
				res.Degenerate++
			}
		case StatCPA:
			tr = refCorrelationTrace(ts, mo, box, guess)
		case StatCPA2:
			tr = refCorrelationTrace2(ts, mo, box, guess)
		}
		peak := 0.0
		for _, v := range tr {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		res.AllScores[guess] = peak
		switch {
		case peak > res.Best.Peak:
			res.RunnerUp = res.Best
			res.Best = GuessScore{Guess: guess, Peak: peak}
		case peak > res.RunnerUp.Peak:
			res.RunnerUp = GuessScore{Guess: guess, Peak: peak}
		}
	}
	return res
}

func refAESCPAByte(ts *AESTraceSet, byteIdx int) (best, runnerUp uint32, bestPeak, runnerPeak float64) {
	bestPeak, runnerPeak = -1, -1
	m := len(ts.Traces)
	n := ts.Window.End - ts.Window.Start
	if m == 0 || n <= 0 {
		return 0, 0, 0, 0
	}
	v := leakstat.NewVec(n)
	for _, tr := range ts.Traces {
		v.AddTrace(tr[ts.Window.Start:ts.Window.End])
	}
	centered := make([][]float64, m)
	for i, tr := range ts.Traces {
		seg := tr[ts.Window.Start:ts.Window.End]
		c := make([]float64, n)
		for j, x := range seg {
			c[j] = x - v.Mean[j]
		}
		centered[i] = c
	}
	h := make([]float64, m)
	for guess := uint32(0); guess < 256; guess++ {
		var hAcc leakstat.Acc
		for i, pt := range ts.Plaintexts {
			h[i] = float64(bits.OnesCount8(aes.SBox[byte(pt[byteIdx])^byte(guess)]))
			hAcc.Add(h[i])
		}
		peak := 0.0
		if hAcc.M2 > 0 {
			cov := make([]float64, n)
			for i := range centered {
				hi := h[i] - hAcc.Mean
				for j, c := range centered[i] {
					cov[j] += hi * c
				}
			}
			for j := range cov {
				if d := hAcc.M2 * v.M2[j]; d > 0 {
					if r := math.Abs(cov[j] / math.Sqrt(d)); r > peak {
						peak = r
					}
				}
			}
		}
		switch {
		case peak > bestPeak:
			runnerUp, runnerPeak = best, bestPeak
			best, bestPeak = guess, peak
		case peak > runnerPeak:
			runnerUp, runnerPeak = guess, peak
		}
	}
	return best, runnerUp, bestPeak, runnerPeak
}
