package dpa

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"desmask/internal/des"
	"desmask/internal/trace"
)

// varianceLeakSet builds the synthetic signature of a first-order masked
// trace: one sample whose MEAN is independent of the predicted S-box output
// but whose VARIANCE grows with its Hamming weight (two shares summed into
// one cycle's energy), surrounded by pure-noise samples.
func varianceLeakSet(t *testing.T, traces int) (*TraceSet, uint32) {
	t.Helper()
	truth := des.SubkeySixBits(attackKey, 0)
	rng := rand.New(rand.NewSource(99))
	ts := &TraceSet{Window: trace.Window{Start: 0, End: 4}}
	for i := 0; i < traces; i++ {
		pt := rng.Uint64()
		h := 0
		for v := des.FirstRoundSBoxOutput(pt, 0, truth); v != 0; v >>= 1 {
			h += int(v & 1)
		}
		// Sample 1 leaks through its spread: +/- (h+1) with a fair sign, so
		// every guess's first-order partition sees the same mean.
		sign := float64(1)
		if rng.Intn(2) == 0 {
			sign = -1
		}
		row := []float64{
			rng.NormFloat64(),
			10 + sign*float64(h+1),
			rng.NormFloat64(),
			rng.NormFloat64(),
		}
		ts.Plaintexts = append(ts.Plaintexts, pt)
		ts.Traces = append(ts.Traces, row)
	}
	return ts, truth
}

// TestCPA2RecoversVarianceLeak: the second-order distinguisher recovers the
// sub-key chunk from a variance-only leak that defeats first-order CPA.
func TestCPA2RecoversVarianceLeak(t *testing.T) {
	ts, truth := varianceLeakSet(t, 600)
	r2 := CPA2AttackSBox(ts, 0)
	if r2.Best.Guess != truth {
		t.Errorf("second-order CPA recovered %d, want %d (peak %.3f, margin %.2f)",
			r2.Best.Guess, truth, r2.Best.Peak, r2.Margin())
	}
	if r2.Best.Peak < 0.5 {
		t.Errorf("second-order peak %.3f too weak for a pure variance leak", r2.Best.Peak)
	}
	// First-order CPA on the same set must not find a comparable signal at
	// the true guess — the means are flat by construction.
	r1 := CPAAttackSBox(ts, 0)
	if r1.AllScores[truth] > 0.5*r2.Best.Peak {
		t.Errorf("first-order CPA scores the true guess %.3f; variance leak is not first-order hidden",
			r1.AllScores[truth])
	}
}

// TestCorrelationTrace2Properties: bounds, lengths and degenerate inputs of
// the second-order distinguisher mirror the first-order contract.
func TestCorrelationTrace2Properties(t *testing.T) {
	ts, truth := varianceLeakSet(t, 100)
	corr := CorrelationTrace2(ts, 0, truth)
	if len(corr) != ts.Window.Len() {
		t.Fatalf("length %d, want %d", len(corr), ts.Window.Len())
	}
	for i, v := range corr {
		if math.IsNaN(v) || v < -1.0000001 || v > 1.0000001 {
			t.Fatalf("sample %d: correlation %v outside [-1,1]", i, v)
		}
	}
	// Each sample is the two-pass Pearson correlation of HW against
	// y = (x - mean)^2.
	m := float64(ts.Len())
	for j := range corr {
		var mean, yMean, hMean float64
		for i, tr := range ts.Traces {
			mean += tr[j] / m
			hMean += float64(bits.OnesCount8(des.FirstRoundSBoxOutput(ts.Plaintexts[i], 0, truth))) / m
		}
		y := make([]float64, ts.Len())
		for i, tr := range ts.Traces {
			y[i] = (tr[j] - mean) * (tr[j] - mean)
			yMean += y[i] / m
		}
		var cov, hM2, yM2 float64
		for i, pt := range ts.Plaintexts {
			dh := float64(bits.OnesCount8(des.FirstRoundSBoxOutput(pt, 0, truth))) - hMean
			cov += dh * (y[i] - yMean)
			hM2 += dh * dh
			yM2 += (y[i] - yMean) * (y[i] - yMean)
		}
		if want := cov / math.Sqrt(hM2*yM2); math.Abs(corr[j]-want) > 1e-9 {
			t.Errorf("sample %d: r=%v, two-pass Pearson %v", j, corr[j], want)
		}
	}
	if CorrelationTrace2(&TraceSet{}, 0, 0) != nil {
		t.Error("empty trace set should yield nil")
	}
	// Constant predictions and constant traces both collapse to finite zero.
	flat := &TraceSet{
		Plaintexts: []uint64{7, 7},
		Traces:     [][]float64{{1, 2}, {3, 4}},
		Window:     trace.Window{Start: 0, End: 2},
	}
	for _, v := range CorrelationTrace2(flat, 0, 0) {
		if v != 0 {
			t.Error("constant predictions must produce zero correlation")
		}
	}
	constant := &TraceSet{
		Plaintexts: []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0xFEDCBA9876543210},
		Traces:     [][]float64{{9, 9}, {9, 9}, {9, 9}, {9, 9}},
		Window:     trace.Window{Start: 0, End: 2},
	}
	for guess := uint32(0); guess < 64; guess += 17 {
		for j, v := range CorrelationTrace2(constant, 0, guess) {
			if math.IsNaN(v) || v != 0 {
				t.Fatalf("guess %d sample %d: r=%v, want finite 0 on constant traces", guess, j, v)
			}
		}
	}
}

// TestFullKeyAttackCompletesKey: with every chunk recovered correctly the
// attack completes to the true (parity-stripped) key; one corrupted chunk
// makes completion fail rather than return a wrong key.
func TestFullKeyAttackCompletesKey(t *testing.T) {
	pt := uint64(0x0123456789ABCDEF)
	ct := des.Encrypt(attackKey, pt)
	var chunks [8]uint32
	for box := 0; box < 8; box++ {
		chunks[box] = des.SubkeySixBits(attackKey, box)
	}
	key, ok := des.RecoverKey(chunks, pt, ct)
	if !ok || des.Encrypt(key, pt) != ct {
		t.Fatalf("completion failed on correct chunks (ok=%v key=%016x)", ok, key)
	}
	chunks[3] ^= 0x15
	if _, ok := des.RecoverKey(chunks, pt, ct); ok {
		t.Error("completion succeeded on a corrupted chunk")
	}
}

// TestStatNamesAndChunks: the distinguisher names match the attack API and
// Chunks extracts best guesses in box order.
func TestStatNamesAndChunks(t *testing.T) {
	for stat, want := range map[Stat]string{StatDoM: "dom", StatCPA: "cpa", StatCPA2: "cpa2"} {
		if got := stat.String(); got != want {
			t.Errorf("Stat(%d).String() = %q, want %q", stat, got, want)
		}
	}
	var results [8]BoxResult
	for box := range results {
		results[box] = BoxResult{Box: box, Best: GuessScore{Guess: uint32(box * 7)}}
	}
	chunks := Chunks(results)
	for box, c := range chunks {
		if c != uint32(box*7) {
			t.Errorf("chunk %d = %d, want %d", box, c, box*7)
		}
	}
}
