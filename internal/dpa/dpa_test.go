package dpa

import (
	"math"
	"sync"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

const attackKey = 0x133457799BBCDFF1

var (
	setupOnce   sync.Once
	unmaskedSet *TraceSet
	maskedSet   *TraceSet
	roundWin    trace.Window
)

// setup collects one shared pair of trace sets (expensive).
func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := Config{NumTraces: 128, Seed: 42, MaxCycles: 25_000}
		mNone, err := desprog.New(compiler.PolicyNone)
		if err != nil {
			panic(err)
		}
		mSel, err := desprog.New(compiler.PolicySelective)
		if err != nil {
			panic(err)
		}
		unmaskedSet, err = Collect(mNone, attackKey, cfg)
		if err != nil {
			panic(err)
		}
		maskedSet, err = Collect(mSel, attackKey, cfg)
		if err != nil {
			panic(err)
		}
		// Analyse the round region only (the attacker skips the plaintext-
		// dependent initial permutation).
		roundWin = trace.Window{Start: 7_000, End: 25_000}
		unmaskedSet.Window = roundWin
		maskedSet.Window = roundWin
	})
}

func TestCollectShapeAndDeterminism(t *testing.T) {
	setup(t)
	if unmaskedSet.Len() != 128 {
		t.Fatalf("collected %d traces", unmaskedSet.Len())
	}
	for _, tr := range unmaskedSet.Traces {
		if len(tr) != 25_000 {
			t.Fatalf("trace length %d, want 25000", len(tr))
		}
	}
	// Same seed twice gives the same plaintexts.
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := Collect(m, attackKey, Config{NumTraces: 3, Seed: 42, MaxCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ts2.Plaintexts[i] != unmaskedSet.Plaintexts[i] {
			t.Fatal("plaintext generation not deterministic")
		}
	}
}

func TestCollectRejectsBadConfig(t *testing.T) {
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(m, attackKey, Config{NumTraces: 0}); err == nil {
		t.Error("zero traces accepted")
	}
}

func TestDPARecoversSubkeyUnmasked(t *testing.T) {
	setup(t)
	// Boxes with comfortable margins at 128 traces; the experiments binary
	// demonstrates full 8/8 recovery with 256.
	for _, box := range []int{0, 1, 3, 5} {
		r := AttackSBox(unmaskedSet, box, 0)
		truth := des.SubkeySixBits(attackKey, box)
		if r.Best.Guess != truth {
			t.Errorf("box %d: recovered %d, want %d (peak %.3f, margin %.2f)",
				box, r.Best.Guess, truth, r.Best.Peak, r.Margin())
		}
		if r.Best.Peak <= 0 {
			t.Errorf("box %d: no differential signal", box)
		}
	}
}

func TestDPAFailsMasked(t *testing.T) {
	setup(t)
	recovered := 0
	for box := 0; box < 8; box++ {
		r := AttackSBox(maskedSet, box, 0)
		// Masked round region is identical across plaintexts: the DoM is
		// exactly zero for every guess.
		if r.Best.Peak > 1e-9 {
			t.Errorf("box %d: masked traces show differential peak %.6f", box, r.Best.Peak)
		}
		if r.Best.Guess == des.SubkeySixBits(attackKey, box) {
			recovered++
		}
	}
	if recovered > 2 {
		t.Errorf("masked attack 'recovered' %d/8 chunks; should be chance level", recovered)
	}
}

func TestDifferenceOfMeansProperties(t *testing.T) {
	setup(t)
	dom := DifferenceOfMeans(unmaskedSet, 0, 0, des.SubkeySixBits(attackKey, 0))
	if len(dom) != roundWin.Len() {
		t.Fatalf("DoM length %d, want %d", len(dom), roundWin.Len())
	}
	peak := 0.0
	for _, v := range dom {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak <= 0 {
		t.Error("true-key DoM shows no peak")
	}
}

func TestDegeneratePartition(t *testing.T) {
	// All-identical plaintexts put every trace in one group.
	ts := &TraceSet{
		Plaintexts: []uint64{5, 5, 5},
		Traces:     [][]float64{{1, 2}, {1, 2}, {1, 2}},
		Window:     trace.Window{Start: 0, End: 2},
	}
	dom := DifferenceOfMeans(ts, 0, 0, 0)
	for _, v := range dom {
		if v != 0 {
			t.Error("degenerate partition must produce zero DoM")
		}
	}
}

func TestVerify(t *testing.T) {
	var results [8]BoxResult
	for box := 0; box < 8; box++ {
		results[box] = BoxResult{Box: box, Best: GuessScore{Guess: des.SubkeySixBits(attackKey, box)}}
	}
	n, detail := Verify(results, attackKey)
	if n != 8 {
		t.Errorf("Verify = %d, want 8", n)
	}
	for i, ok := range detail {
		if !ok {
			t.Errorf("box %d not verified", i)
		}
	}
	results[0].Best.Guess ^= 1
	if n, _ := Verify(results, attackKey); n != 7 {
		t.Errorf("Verify after corruption = %d, want 7", n)
	}
}

func TestMarginInf(t *testing.T) {
	r := BoxResult{Best: GuessScore{Peak: 1}, RunnerUp: GuessScore{Peak: 0}}
	if !math.IsInf(r.Margin(), 1) {
		t.Error("margin with zero runner-up should be +Inf")
	}
}

func TestSPAFindsRoundPeriod(t *testing.T) {
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.EncryptJob(attackKey, 0x0123456789ABCDEF, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Runner().Run(job)
	if res.Err != nil || !res.Done {
		t.Fatalf("run: %v done=%v", res.Err, res.Done)
	}
	// Ground truth round length from the symbol table.
	starts := func() []int {
		entry, err := m.EntryPC(desprog.FuncKeyGeneration)
		if err != nil {
			t.Fatal(err)
		}
		var s []int
		for i, pc := range res.Trace.PCs {
			if pc == entry {
				s = append(s, i)
			}
		}
		return s
	}()
	if len(starts) != 16 {
		t.Fatalf("found %d rounds", len(starts))
	}
	roundLen := starts[1] - starts[0]

	const bucket = 100
	spa := SPA(res.Trace.Totals, bucket, 20, 400)
	if spa.Strength < 0.3 {
		t.Errorf("SPA autocorrelation too weak: %.3f", spa.Strength)
	}
	got := spa.Period * bucket
	if math.Abs(float64(got-roundLen)) > 0.1*float64(roundLen) {
		t.Errorf("SPA period %d cycles, true round length %d", got, roundLen)
	}
	if spa.Rounds < 14 || spa.Rounds > 20 {
		t.Errorf("SPA round estimate %d, want ~16", spa.Rounds)
	}
}

func TestSPAEdgeCases(t *testing.T) {
	if r := SPA(nil, 10, 1, 5); r.Period != 0 {
		t.Error("empty input should yield zero result")
	}
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = 7
	}
	if r := SPA(flat, 10, 1, 50); r.Strength != 0 {
		t.Error("zero-variance input should yield zero strength")
	}
	if r := SPA([]float64{1, 2}, 1, 5, 4); r.Period != 0 {
		t.Error("bad period bounds should yield zero result")
	}
}

func TestCPARecoversSubkeyUnmasked(t *testing.T) {
	setup(t)
	recovered := 0
	for box := 0; box < 8; box++ {
		r := CPAAttackSBox(unmaskedSet, box)
		if r.Best.Guess == des.SubkeySixBits(attackKey, box) {
			recovered++
		}
		if r.Best.Peak <= 0 || r.Best.Peak > 1+1e-9 {
			t.Errorf("box %d: correlation peak %.3f out of (0,1]", box, r.Best.Peak)
		}
	}
	// CPA should do at least as well as single-bit DoM at the same trace
	// count; require a solid majority.
	if recovered < 5 {
		t.Errorf("CPA recovered only %d/8 at 128 traces", recovered)
	}
}

func TestCPAFailsMasked(t *testing.T) {
	setup(t)
	for box := 0; box < 8; box++ {
		r := CPAAttackSBox(maskedSet, box)
		if r.Best.Peak > 1e-9 {
			t.Errorf("box %d: masked traces show correlation %.6f", box, r.Best.Peak)
		}
	}
}

func TestCorrelationTraceProperties(t *testing.T) {
	setup(t)
	corr := CorrelationTrace(unmaskedSet, 0, des.SubkeySixBits(attackKey, 0))
	if len(corr) != roundWin.Len() {
		t.Fatalf("length %d, want %d", len(corr), roundWin.Len())
	}
	for i, v := range corr {
		if v < -1.0000001 || v > 1.0000001 {
			t.Fatalf("cycle %d: correlation %.4f outside [-1,1]", i, v)
		}
	}
	// Degenerate inputs.
	if CorrelationTrace(&TraceSet{}, 0, 0) != nil {
		t.Error("empty trace set should yield nil")
	}
	ts := &TraceSet{
		Plaintexts: []uint64{7, 7},
		Traces:     [][]float64{{1, 2}, {3, 4}},
		Window:     trace.Window{Start: 0, End: 2},
	}
	for _, v := range CorrelationTrace(ts, 0, 0) {
		if v != 0 {
			t.Error("constant predictions must produce zero correlation")
		}
	}
}

func TestAESCPARecoversKeyBytes(t *testing.T) {
	mNone, err := kernels.BuildSimple(kernels.AES128(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]uint32, 16)
	for i := range key {
		key[i] = uint32((i*37 + 11) & 0xff)
	}
	// SubBytes of round 1 happens early; 12k cycles cover key expansion +
	// round 1 comfortably.
	ts, err := CollectAES(mNone, key, 80, 7, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, byteIdx := range []int{0, 5, 10, 15} {
		best, _, peak, _ := AESCPAByte(ts, byteIdx)
		if best == key[byteIdx] {
			recovered++
		}
		if peak <= 0 {
			t.Errorf("byte %d: no correlation signal", byteIdx)
		}
	}
	if recovered < 3 {
		t.Errorf("AES CPA recovered only %d/4 sampled key bytes", recovered)
	}
}

func TestAESCPAFailsMasked(t *testing.T) {
	mSel, err := kernels.BuildSimple(kernels.AES128(), compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]uint32, 16)
	for i := range key {
		key[i] = uint32((i * 13) & 0xff)
	}
	ts, err := CollectAES(mSel, key, 40, 7, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	// The insecure plaintext-copy region still correlates with the power
	// model for every guess (it is plaintext-dependent by design, like
	// DES's initial permutation), but those correlations carry no key
	// information: recovery must collapse to chance.
	recovered := 0
	for _, byteIdx := range []int{0, 5, 10, 15} {
		best, _, _, _ := AESCPAByte(ts, byteIdx)
		if best == key[byteIdx] {
			recovered++
		}
	}
	if recovered > 1 {
		t.Errorf("masked AES CPA recovered %d/4 key bytes; should be chance", recovered)
	}
}

func TestAESCPAEdgeCases(t *testing.T) {
	if _, _, peak, _ := AESCPAByte(&AESTraceSet{}, 0); peak != 0 {
		t.Error("empty trace set should yield zero peak")
	}
	m, err := kernels.BuildSimple(kernels.AES128(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectAES(m, make([]uint32, 16), 0, 1, 0); err == nil {
		t.Error("zero traces accepted")
	}
}

// TestCPAConstantTracesFinite is the NaN regression test: every sample has
// zero trace variance (the masked-trace shape), so the Pearson denominator
// is zero everywhere. The correlations must come back finite zeros, never
// NaN — a single NaN poisons every peak comparison downstream.
func TestCPAConstantTracesFinite(t *testing.T) {
	ts := &TraceSet{
		// Distinct plaintexts so the power model varies (hVar > 0) while the
		// traces do not (tVar == 0) — the exact hVar*tVar == 0 case.
		Plaintexts: []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0xFEDCBA9876543210},
		Traces:     [][]float64{{9, 9, 9}, {9, 9, 9}, {9, 9, 9}, {9, 9, 9}},
		Window:     trace.Window{Start: 0, End: 3},
	}
	for guess := uint32(0); guess < 64; guess += 21 {
		for j, r := range CorrelationTrace(ts, 0, guess) {
			if math.IsNaN(r) || r != 0 {
				t.Fatalf("guess %d sample %d: r=%v, want finite 0 on constant traces", guess, j, r)
			}
		}
	}
	r := CPAAttackSBox(ts, 0)
	if math.IsNaN(r.Best.Peak) || r.Best.Peak != 0 {
		t.Fatalf("constant-trace CPA peak %v, want 0", r.Best.Peak)
	}
}

// TestAESCPAConstantTracesFinite: same regression for the AES distinguisher.
func TestAESCPAConstantTracesFinite(t *testing.T) {
	pts := make([][]uint32, 4)
	traces := make([][]float64, 4)
	for i := range pts {
		pt := make([]uint32, 16)
		for j := range pt {
			pt[j] = uint32((i*31 + j*7) & 0xff)
		}
		pts[i] = pt
		traces[i] = []float64{4, 4, 4, 4}
	}
	ts := &AESTraceSet{Plaintexts: pts, Traces: traces, Window: trace.Window{Start: 0, End: 4}}
	_, _, bestPeak, runnerPeak := AESCPAByte(ts, 0)
	if math.IsNaN(bestPeak) || math.IsNaN(runnerPeak) || bestPeak != 0 {
		t.Fatalf("constant-trace AES CPA peaks (%v, %v), want finite zeros", bestPeak, runnerPeak)
	}
}

// TestDegenerateSingleTraceSet is the empty-group regression test: one
// trace can never populate both selection groups, so all 64 guesses are
// degenerate. The differentials must be finite zeros (not NaN/Inf from a
// division by n=0) and the result must say how many guesses degenerated.
func TestDegenerateSingleTraceSet(t *testing.T) {
	ts := &TraceSet{
		Plaintexts: []uint64{0x0123456789ABCDEF},
		Traces:     [][]float64{{5, 6, 7}},
		Window:     trace.Window{Start: 0, End: 3},
	}
	r := AttackSBox(ts, 0, 0)
	if r.Degenerate != 64 {
		t.Fatalf("Degenerate=%d, want 64 for a 1-trace set", r.Degenerate)
	}
	for guess, score := range r.AllScores {
		if math.IsNaN(score) || math.IsInf(score, 0) || score != 0 {
			t.Fatalf("guess %d: score %v, want finite 0", guess, score)
		}
	}
	dom, n1, n0 := DifferenceOfMeansDetail(ts, 0, 0, 0)
	if n1+n0 != 1 || (n1 != 0 && n0 != 0) {
		t.Fatalf("partition sizes (%d, %d), want one empty group", n1, n0)
	}
	for _, v := range dom {
		if v != 0 {
			t.Fatalf("degenerate DoM %v, want zeros", dom)
		}
	}
	// Every distinguisher reports the set as too small, not as masked: one
	// trace makes every guess's prediction constant.
	for _, stat := range []Stat{StatDoM, StatCPA, StatCPA2} {
		for _, b := range FullKeyAttack(ts, stat, 0, 0).Boxes {
			if b.Degenerate != 64 {
				t.Errorf("%v box %d: Degenerate=%d, want 64 for a 1-trace set", stat, b.Box, b.Degenerate)
			}
		}
	}
	// A healthy set must report zero degenerate guesses.
	setup(t)
	if r := AttackSBox(unmaskedSet, 0, 0); r.Degenerate != 0 {
		t.Fatalf("128-trace set reports %d degenerate guesses", r.Degenerate)
	}
}

// TestCollectRecordsLengths: cycle-aligned collection records every run's
// original length and reports no truncation.
func TestCollectRecordsLengths(t *testing.T) {
	setup(t)
	if len(unmaskedSet.OrigLens) != unmaskedSet.Len() {
		t.Fatalf("OrigLens has %d entries for %d traces", len(unmaskedSet.OrigLens), unmaskedSet.Len())
	}
	for i, l := range unmaskedSet.OrigLens {
		if l != 25_000 {
			t.Fatalf("trace %d: original length %d, want 25000", i, l)
		}
	}
	if unmaskedSet.Truncated || maskedSet.Truncated {
		t.Fatal("cycle-aligned collection must not report truncation")
	}
}

// requireSameSet fails unless two trace sets hold the same plaintexts,
// trace bits, original lengths, truncation flag and window.
func requireSameSet(t *testing.T, what string, got, want *TraceSet) {
	t.Helper()
	if got.Len() != want.Len() || got.Truncated != want.Truncated || got.Window != want.Window {
		t.Fatalf("%s: %d traces truncated=%v window %v, want %d truncated=%v window %v",
			what, got.Len(), got.Truncated, got.Window, want.Len(), want.Truncated, want.Window)
	}
	for i := range want.Traces {
		if got.Plaintexts[i] != want.Plaintexts[i] || got.OrigLens[i] != want.OrigLens[i] ||
			len(got.Traces[i]) != len(want.Traces[i]) {
			t.Fatalf("%s trace %d: plaintext %X length %d/%d, want %X %d/%d", what, i,
				got.Plaintexts[i], len(got.Traces[i]), got.OrigLens[i],
				want.Plaintexts[i], len(want.Traces[i]), want.OrigLens[i])
		}
		for j, v := range want.Traces[i] {
			if math.Float64bits(got.Traces[i][j]) != math.Float64bits(v) {
				t.Fatalf("%s trace %d sample %d: %v, want %v", what, i, j, got.Traces[i][j], v)
			}
		}
	}
}

// TestCollectGangBitIdentity: gang-scheduled acquisition is a pure
// throughput knob. The default gang (0, leakstat.DefaultGang lanes), gangs
// of 8, and gangs of 4 across 3 workers collect the one-lane trace set bit
// for bit on every policy and both ISAs, and the default really runs lanes
// in lockstep. 20 traces leave a partial gang at widths 16 and 8.
func TestCollectGangBitIdentity(t *testing.T) {
	builds := []struct {
		name string
		opt  compiler.Options
	}{
		{"none", compiler.Options{Policy: compiler.PolicyNone}},
		{"selective", compiler.Options{Policy: compiler.PolicySelective}},
		{"boolean-mask", compiler.Options{Policy: compiler.PolicyBooleanMask}},
		{"shuffle", compiler.Options{Policy: compiler.PolicyNone, Shuffle: true}},
	}
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, b := range builds {
			t.Run(isaName+"/"+b.name, func(t *testing.T) {
				opt := b.opt
				opt.Target = target
				m, err := desprog.NewFull(opt, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				collect := func(workers, gang int) *TraceSet {
					t.Helper()
					ts, err := Collect(m, attackKey, Config{NumTraces: 20, Seed: 3, MaxCycles: 25_000, Workers: workers, Gang: gang})
					if err != nil {
						t.Fatal(err)
					}
					return ts
				}
				ref := collect(2, 1)
				runs := m.Runner().GangRuns()
				requireSameSet(t, "default gang", collect(2, 0), ref)
				if m.Runner().GangRuns() == runs {
					t.Error("the default gang ran no lane in lockstep")
				}
				requireSameSet(t, "gang 8", collect(2, 8), ref)
				requireSameSet(t, "gang 4, 3 workers", collect(3, 4), ref)
			})
		}
	}
}

// TestCollectAESGangMatchesOneLane: CollectAES runs its kernels in gangs,
// and every trace is the one-lane run's trace, cut to the set's length.
func TestCollectAESGangMatchesOneLane(t *testing.T) {
	m, err := kernels.BuildSimple(kernels.AES128(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]uint32, 16)
	for i := range key {
		key[i] = uint32((i*37 + 11) & 0xff)
	}
	ts, err := CollectAES(m, key, 20, 7, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runner().GangRuns() == 0 {
		t.Error("CollectAES ran no lane in lockstep")
	}
	if ts.Truncated || ts.Window != (trace.Window{Start: 0, End: 12_000}) {
		t.Fatalf("truncated=%v window %v, want false [0,12000)", ts.Truncated, ts.Window)
	}
	ref, err := m.RunBatch(key, ts.Plaintexts, true, sim.Options{GangWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ref {
		want := r.Trace.Totals
		if ts.OrigLens[i] != len(want) || len(ts.Traces[i]) != 12_000 {
			t.Fatalf("trace %d: length %d of %d, one lane ran %d", i, len(ts.Traces[i]), ts.OrigLens[i], len(want))
		}
		for j, v := range ts.Traces[i] {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("trace %d sample %d: %v, one lane %v", i, j, v, want[j])
			}
		}
	}
}
