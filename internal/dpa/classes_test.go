package dpa

import (
	"math"
	"runtime"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
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

// TestFullKeyAttackAllocBudget: the class table's rows are the attack's
// only O(traces × samples) allocation, so a 32-trace, 25k-sample CPA
// verdict stays within a fixed heap budget.
func TestFullKeyAttackAllocBudget(t *testing.T) {
	setup(t)
	ts := prefix(unmaskedSet, 32)
	ts.Window = trace.Window{Start: 0, End: 25_000}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	FullKeyAttack(ts, StatCPA, 0, 0)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 16 {
		t.Errorf("FullKeyAttack(StatCPA) on 32 x 25k allocated %.1f MB, budget 16 MB", mb)
	}
}
