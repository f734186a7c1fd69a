package dpa

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/leakstat"
	"desmask/internal/trace"
)

// prefix views the first n traces of a set: exactly the acquisition a
// smaller NumTraces would have produced, because Collect draws the
// plaintext sequence up front.
func prefix(ts *TraceSet, n int) *TraceSet {
	return &TraceSet{Plaintexts: ts.Plaintexts[:n], Traces: ts.Traces[:n], Window: ts.Window}
}

// TestClassTableMatchesOracle holds every distinguisher on the class-table
// core to the per-trace reference oracle, on unprotected, shuffled and
// boolean-masked builds: the same best and runner-up guesses, the same
// degenerate counts, the same completed key, and scores within 1e-9 of the
// box's best peak. The window is the round-1 S-box region (right_side),
// which keeps the slow oracle affordable at full trace counts.
func TestClassTableMatchesOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic; CI runs it in a dedicated race-free step")
	}
	builds := []struct {
		name string
		opt  compiler.Options
	}{
		{"none", compiler.Options{Policy: compiler.PolicyNone}},
		{"shuffle", compiler.Options{Policy: compiler.PolicyNone, Shuffle: true}},
		{"boolean-mask", compiler.Options{Policy: compiler.PolicyBooleanMask}},
	}
	counts := []int{32, 64, 128, 256}
	if testing.Short() {
		counts = counts[:3]
	}
	const pt = 0x0123456789ABCDEF
	ct := des.Encrypt(attackKey, pt)
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			m, err := desprog.NewFull(b.opt, energy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			probe, _, err := m.Trace(attackKey, pt)
			if err != nil {
				t.Fatal(err)
			}
			win, err := m.PhaseWindow(probe, desprog.FuncRightSide, desprog.FuncLeftSide)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Collect(m, attackKey, Config{
				NumTraces: counts[len(counts)-1], Seed: 5, MaxCycles: uint64(win.End), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			full.Window = win
			for _, n := range counts {
				ts := prefix(full, n)
				mo := newRefMoments(ts)
				for _, stat := range []Stat{StatDoM, StatCPA, StatCPA2} {
					got := FullKeyAttack(ts, stat, pt, ct)
					var want [8]BoxResult
					for box := range want {
						want[box] = refAttackSBox(ts, mo, stat, box)
						g, w := got.Boxes[box], want[box]
						if g.Best.Guess != w.Best.Guess || g.RunnerUp.Guess != w.RunnerUp.Guess || g.Degenerate != w.Degenerate {
							t.Errorf("%d traces %v box %d: best/runner-up/degenerate %d/%d/%d, oracle %d/%d/%d",
								n, stat, box, g.Best.Guess, g.RunnerUp.Guess, g.Degenerate,
								w.Best.Guess, w.RunnerUp.Guess, w.Degenerate)
						}
						for guess := range w.AllScores {
							if d := math.Abs(g.AllScores[guess] - w.AllScores[guess]); d > 1e-9*w.Best.Peak {
								t.Errorf("%d traces %v box %d guess %d: score %v, oracle %v",
									n, stat, box, guess, g.AllScores[guess], w.AllScores[guess])
							}
						}
					}
					key, ok := des.RecoverKey(Chunks(want), pt, ct)
					if got.Key != key || got.OK != ok {
						t.Errorf("%d traces %v: key %016X ok=%v, oracle %016X ok=%v", n, stat, got.Key, got.OK, key, ok)
					}
				}
			}
		})
	}
}

// TestAESCPAMatchesOracle: the AES distinguisher on the class table (256
// plaintext-byte classes, 256 guesses) picks the oracle's best and
// runner-up guesses with the same peaks.
func TestAESCPAMatchesOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic; CI runs it in a dedicated race-free step")
	}
	m, err := kernels.BuildSimple(kernels.AES128(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]uint32, 16)
	for i := range key {
		key[i] = uint32((i*37 + 11) & 0xff)
	}
	ts, err := CollectAES(m, key, 80, 7, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, byteIdx := range []int{0, 5, 10, 15} {
		best, runnerUp, bestPeak, runnerPeak := AESCPAByte(ts, byteIdx)
		wb, wr, wbp, wrp := refAESCPAByte(ts, byteIdx)
		if best != wb || runnerUp != wr ||
			math.Abs(bestPeak-wbp) > 1e-9*wbp || math.Abs(runnerPeak-wrp) > 1e-9*wbp {
			t.Errorf("byte %d: best %d (%v) runner-up %d (%v), oracle %d (%v) %d (%v)",
				byteIdx, best, bestPeak, runnerUp, runnerPeak, wb, wbp, wr, wrp)
		}
	}
}

// TestFullKeyAttackAllocBudget: the class table keeps only the samples
// that vary, and attacks recycle it, so in steady state a full-key attack
// allocates its results and nothing of O(traces × samples). Once a warm-up
// call has pooled a table, a 32-trace, 25k-sample CPA verdict on
// unprotected DES (3,866 varying samples) allocates about 2 KB; building
// the table afresh took 2.2 MB, which this budget rejects.
func TestFullKeyAttackAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; CI runs this in a dedicated race-free step")
	}
	setup(t)
	ts := prefix(unmaskedSet, 32)
	ts.Window = trace.Window{Start: 0, End: 25_000}
	FullKeyAttack(ts, StatCPA, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	FullKeyAttack(ts, StatCPA, 0, 0)
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1e3
	t.Logf("steady-state FullKeyAttack(StatCPA) on 32 x 25k: %.1f KB", kb)
	if kb > 16 {
		t.Errorf("FullKeyAttack(StatCPA) on 32 x 25k allocated %.1f KB in steady state, budget 16 KB", kb)
	}
}

// requireSameBits fails unless got and want hold the same float64 bits,
// signed zeros included.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, full width %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s sample %d: %v, full width %v", what, j, got[j], want[j])
		}
	}
}

// requireSameBoxes fails unless two full-key results agree in every field,
// scores and peaks by their float64 bits.
func requireSameBoxes(t *testing.T, what string, got, want [8]BoxResult) {
	t.Helper()
	for box := range want {
		g, w := got[box], want[box]
		if g.Box != w.Box || g.Bit != w.Bit || g.Degenerate != w.Degenerate ||
			g.Best.Guess != w.Best.Guess || g.RunnerUp.Guess != w.RunnerUp.Guess {
			t.Fatalf("%s box %d: %+v/%+v degenerate %d, full width %+v/%+v degenerate %d",
				what, box, g.Best, g.RunnerUp, g.Degenerate, w.Best, w.RunnerUp, w.Degenerate)
		}
		requireSameBits(t, fmt.Sprintf("%s box %d peaks", what, box),
			[]float64{g.Best.Peak, g.RunnerUp.Peak}, []float64{w.Best.Peak, w.RunnerUp.Peak})
		requireSameBits(t, fmt.Sprintf("%s box %d scores", what, box), g.AllScores[:], w.AllScores[:])
	}
}

// requireCompactMatchesFull holds every DES view of the compacted table to
// the full-width reference (fullwidth_test.go): the full-key results of
// DoM on each of the four bits, CPA and CPA2, and the one-guess vectors of
// CorrelationTrace, CorrelationTrace2 and DifferenceOfMeansDetail.
func requireCompactMatchesFull(t *testing.T, what string, ts *TraceSet) {
	t.Helper()
	for bit := range 4 {
		requireSameBoxes(t, fmt.Sprintf("%s DoM bit %d", what, bit), AttackAll(ts, bit), fullAttackAll(ts, StatDoM, bit))
	}
	requireSameBoxes(t, what+" CPA", CPAAttackAll(ts), fullAttackAll(ts, StatCPA, -1))
	requireSameBoxes(t, what+" CPA2", CPA2AttackAll(ts), fullAttackAll(ts, StatCPA2, -2))
	for box := range 8 {
		truth := des.SubkeySixBits(attackKey, box)
		for _, guess := range []uint32{truth, truth ^ 0x2a} {
			at := fmt.Sprintf("%s box %d guess %d", what, box, guess)
			want, _ := fullGuessTrace(ts, StatCPA, box, -1, guess)
			requireSameBits(t, at+" CorrelationTrace", CorrelationTrace(ts, box, guess), want)
			want, _ = fullGuessTrace(ts, StatCPA2, box, -2, guess)
			requireSameBits(t, at+" CorrelationTrace2", CorrelationTrace2(ts, box, guess), want)
			bit := box % 4
			dom, n1, n0 := DifferenceOfMeansDetail(ts, box, bit, guess)
			want, wn1 := fullGuessTrace(ts, StatDoM, box, bit, guess)
			requireSameBits(t, at+" DifferenceOfMeansDetail", dom, want)
			if n1 != wn1 || n0 != ts.Len()-wn1 {
				t.Fatalf("%s DifferenceOfMeansDetail: partition %d/%d, full width %d/%d", at, n1, n0, wn1, ts.Len()-wn1)
			}
		}
	}
}

// TestCompactTableMatchesFullWidth: dropping the samples where every trace
// holds the same value changes no bit of any score or one-guess vector. It
// covers unprotected, selective, boolean-masked and shuffled DES on both
// ISAs at 1 to 100 traces, over the plaintext-dependent initial
// permutation and the round-1 S-box region; a synthetic set whose columns
// sit one ulp apart, where Welford's M2 rounds to 0 while DoM does not;
// an all-constant set; and AES CPA.
func TestCompactTableMatchesFullWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic; CI runs it in a dedicated race-free step")
	}
	counts := []int{1, 2, 3, 32, 100}
	builds := []struct {
		name string
		opt  compiler.Options
	}{
		{"none", compiler.Options{Policy: compiler.PolicyNone}},
		{"selective", compiler.Options{Policy: compiler.PolicySelective}},
		{"boolean-mask", compiler.Options{Policy: compiler.PolicyBooleanMask}},
		{"shuffle", compiler.Options{Policy: compiler.PolicyNone, Shuffle: true}},
	}
	const pt = 0x0123456789ABCDEF
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, b := range builds {
			t.Run(isaName+"/"+b.name, func(t *testing.T) {
				t.Parallel()
				opt := b.opt
				opt.Target = target
				m, err := desprog.NewFull(opt, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				probe, _, err := m.Trace(attackKey, pt)
				if err != nil {
					t.Fatal(err)
				}
				win, err := m.PhaseWindow(probe, desprog.FuncRightSide, desprog.FuncLeftSide)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Collect(m, attackKey, Config{NumTraces: counts[len(counts)-1], Seed: 5, MaxCycles: uint64(win.End)})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("window [0,%d): %d varying samples", win.End, len(varying(full.Traces, full.Window)))
				for _, n := range counts {
					requireCompactMatchesFull(t, fmt.Sprintf("%d traces", n), prefix(full, n))
				}
			})
		}
	}
	t.Run("one-ulp", func(t *testing.T) {
		// Per column, the first trace sits one ulp above the second, whose
		// mantissa is even: Welford's mean rounds to the second value and
		// M2 to exactly 0, yet the centered values, and DoM, are not zero.
		// Column 4 mixes +0 and -0, which compare equal and are dropped.
		ts := &TraceSet{
			Plaintexts: []uint64{0x0123456789ABCDEF, 0xFEDCBA9876543210},
			Traces: [][]float64{
				{5, math.Nextafter(1, 2), math.Nextafter(3, 4), math.Nextafter(1000, 2000), 0, 7, 1},
				{5, 1, 3, 1000, math.Copysign(0, -1), 9, math.Nextafter(1, 2)},
			},
			Window: trace.Window{Start: 0, End: 7},
		}
		v := leakstat.NewVec(ts.Window.Len())
		for _, tr := range ts.Traces {
			v.AddTrace(tr)
		}
		if v.M2[1] != 0 || ts.Traces[0][1] == ts.Traces[1][1] {
			t.Fatalf("column 1 has M2 %v over %v and %v; want 0 over distinct values", v.M2[1], ts.Traces[0][1], ts.Traces[1][1])
		}
		requireCompactMatchesFull(t, "one-ulp", ts)
	})
	t.Run("all-constant", func(t *testing.T) {
		ts := &TraceSet{Window: trace.Window{Start: 0, End: 5}}
		for i := range 8 {
			ts.Plaintexts = append(ts.Plaintexts, uint64(i)*0x9e3779b97f4a7c15)
			ts.Traces = append(ts.Traces, []float64{4.25, 4.25, 0, 1e9, 4.25})
		}
		if k := varying(ts.Traces, ts.Window); len(k) != 0 {
			t.Fatalf("varying samples %v in an all-constant set", k)
		}
		requireCompactMatchesFull(t, "all-constant", ts)
	})
	t.Run("aes", func(t *testing.T) {
		m, err := kernels.BuildSimple(kernels.AES128(), compiler.PolicyNone)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]uint32, 16)
		for i := range key {
			key[i] = uint32((i*37 + 11) & 0xff)
		}
		full, err := CollectAES(m, key, counts[len(counts)-1], 7, 12_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range counts {
			ts := &AESTraceSet{Plaintexts: full.Plaintexts[:n], Traces: full.Traces[:n], Window: full.Window}
			for _, byteIdx := range []int{0, 7, 15} {
				b, r, bp, rp := AESCPAByte(ts, byteIdx)
				wb, wr, wbp, wrp := fullAESCPAByte(ts, byteIdx)
				if b != wb || r != wr {
					t.Fatalf("%d traces byte %d: best/runner-up %d/%d, full width %d/%d", n, byteIdx, b, r, wb, wr)
				}
				requireSameBits(t, fmt.Sprintf("%d traces byte %d peaks", n, byteIdx), []float64{bp, rp}, []float64{wbp, wrp})
			}
		}
	})
}
