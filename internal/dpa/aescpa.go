package dpa

import (
	"fmt"
	"math/bits"
	"math/rand"

	"desmask/internal/aes"
	"desmask/internal/kernels"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// AES key recovery via CPA, demonstrating that the attack framework — like
// the masking compiler — generalises beyond DES: the classic first-round
// AES distinguisher predicts the Hamming weight of SBox[pt[i] ^ k] for each
// guess k of key byte i and correlates it against the traces.

// AESTraceSet is a batch of AES kernel traces with known plaintexts.
type AESTraceSet struct {
	Plaintexts [][]uint32 // 16 bytes each
	Traces     [][]float64
	Window     trace.Window
	// OrigLens and Truncated mirror TraceSet: per-trace lengths as collected
	// (before the maxCycles cut and shortest-run alignment), and whether
	// alignment actually shortened any trace relative to its peers.
	OrigLens  []int
	Truncated bool
}

// CollectAES gathers n AES-kernel energy traces under one key with random
// plaintext bytes. The runs fan out across the kernel's simulation session
// in gangs of leakstat.DefaultGang lanes; the plaintexts are drawn up front
// from the seeded generator, so the trace set is byte-identical regardless
// of worker count.
func CollectAES(m *kernels.Machine, key []uint32, n int, seed int64, maxCycles int) (*AESTraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dpa: trace count must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	plaintexts := make([][]uint32, n)
	for i := range plaintexts {
		pt := make([]uint32, 16)
		for j := range pt {
			pt[j] = uint32(rng.Intn(256))
		}
		plaintexts[i] = pt
	}
	// The kernel runs to halt; truncate afterwards — AES is short enough
	// (~42k cycles) that full runs stay cheap.
	results, err := m.RunBatch(key, plaintexts, true, sim.Options{GangWidth: leakstat.DefaultGang})
	if err != nil {
		return nil, err
	}
	ts := &AESTraceSet{Plaintexts: plaintexts}
	minLen := -1
	for _, r := range results {
		totals := r.Trace.Totals
		ts.OrigLens = append(ts.OrigLens, len(totals))
		if maxCycles > 0 && len(totals) > maxCycles {
			totals = totals[:maxCycles]
		}
		ts.Traces = append(ts.Traces, totals)
		if minLen < 0 || len(totals) < minLen {
			minLen = len(totals)
		}
	}
	for i := range ts.Traces {
		if len(ts.Traces[i]) > minLen {
			ts.Traces[i] = ts.Traces[i][:minLen]
			ts.Truncated = true
		}
	}
	ts.Window = trace.Window{Start: 0, End: minLen}
	return ts, nil
}

// AESCPAByte attacks one key byte (0-15) over all 256 guesses, scoring each
// by peak |correlation| between HW(SBox[pt ^ guess]) and the trace. It runs
// on the class-table core with the plaintext byte as the class.
func AESCPAByte(ts *AESTraceSet, byteIdx int) (best, runnerUp uint32, bestPeak, runnerPeak float64) {
	if len(ts.Traces) == 0 || ts.Window.Len() <= 0 {
		return 0, 0, 0, 0
	}
	t := newClassTable(ts.Traces, ts.Window, 256, StatCPA)
	t.fill(func(i int) int { return int(byte(ts.Plaintexts[i][byteIdx])) })
	var scores [256]float64
	b, r, _ := t.rank(scores[:], func(g, c int) float64 { return float64(bits.OnesCount8(aes.SBox[c^g])) })
	return b.Guess, r.Guess, b.Peak, r.Peak
}
