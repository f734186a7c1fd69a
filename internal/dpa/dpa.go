// Package dpa implements the power-analysis attacks the paper defends
// against: Simple Power Analysis (SPA — reading program structure such as
// the 16 DES rounds straight off the energy profile, Figure 6) and Kocher-
// style Differential Power Analysis (DPA [7], as described by Goubin-Patarin
// [5]): collect energy traces for many known plaintexts, guess 6 bits of the
// first-round sub-key feeding one S-box, split the traces by a predicted
// S-box output bit, and test whether the two groups' mean traces diverge.
// A correct guess produces a differential spike; on a masked implementation
// every guess stays flat.
package dpa

import (
	"fmt"
	"math"
	"math/rand"

	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// Config parameterises trace collection.
type Config struct {
	// NumTraces is the number of (plaintext, trace) samples to gather.
	NumTraces int
	// Seed drives the plaintext generator, for reproducibility.
	Seed int64
	// MaxCycles truncates each run; covering the first round suffices for
	// the first-round sub-key attack and keeps collection fast.
	MaxCycles uint64
	// Workers sizes the acquisition worker pool; <= 0 uses GOMAXPROCS.
	// Collected trace sets are bit-identical for every worker count.
	Workers int
	// Gang is the lockstep gang width: acquisitions run in lockstep gangs
	// of up to Gang lanes (sim.Runner.RunGangSampled), 0 uses
	// leakstat.DefaultGang and 1 runs one lane at a time. Trace sets are
	// bit-identical for any gang width; the knob only changes throughput.
	Gang int
}

// DefaultConfig returns a configuration comparable to the paper's reference
// [5], scaled down because simulated traces are noise-free.
func DefaultConfig() Config {
	return Config{NumTraces: 100, Seed: 1, MaxCycles: 40_000}
}

// TraceSet is a batch of energy traces with known plaintexts, all collected
// under the same (unknown to the attacker) key.
type TraceSet struct {
	Plaintexts []uint64
	Traces     [][]float64
	// Window is the analysis window within each trace (defaults to all).
	Window trace.Window
	// OrigLens records each trace's length as collected. Runs under one key
	// are cycle-aligned by construction, so normally every entry equals the
	// common length; if they ever disagree, Collect aligns the set to the
	// shortest run and sets Truncated, because cycle-indexed statistics are
	// only meaningful over the common prefix. Callers that cannot tolerate
	// truncation should reject sets with Truncated set.
	OrigLens  []int
	Truncated bool
}

// Len returns the number of traces.
func (ts *TraceSet) Len() int { return len(ts.Traces) }

// Collect gathers cfg.NumTraces first-round energy traces from the machine
// under the given key, using uniformly random plaintexts. Acquisition fans
// out across the machine's simulation session (cfg.Workers); the plaintext
// sequence is drawn up front from the seeded generator, so the resulting
// trace set is byte-identical regardless of worker count.
func Collect(m *desprog.Machine, key uint64, cfg Config) (*TraceSet, error) {
	if cfg.NumTraces <= 0 {
		return nil, fmt.Errorf("dpa: NumTraces must be positive")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultConfig().MaxCycles
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plaintexts := make([]uint64, cfg.NumTraces)
	jobs := make([]sim.Job, cfg.NumTraces)
	for i := range plaintexts {
		plaintexts[i] = rng.Uint64()
		job, err := m.EncryptJobSeeded(key, plaintexts[i], sim.DeriveSeed(0, i), cfg.MaxCycles, false)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	ts, err := acquire(m.Runner(), jobs, 0, cfg.Workers, cfg.Gang)
	if err != nil {
		return nil, err
	}
	ts.Plaintexts = plaintexts
	return ts, nil
}

// acquire runs the jobs, which must be gang-shaped (no Trace, no Probe) and
// share one budget, on the sampled gang path in consecutive gangs of gang
// lanes (<= 0: leakstat.DefaultGang), which workers pull in order. Each
// lane samples from cycle 0 straight into its row of one flat buffer that
// the returned set keeps, bit-identical to one-lane trace capture. cut > 0
// cuts every trace to its first cut cycles before alignment (see
// TraceSet). A probe run of jobs[0], neither metered nor sampled, sizes the
// rows: no aligned trace outlasts it, so a generous budget allocates no
// samples that no run reaches.
func acquire(r *sim.Runner, jobs []sim.Job, cut, workers, gang int) (*TraceSet, error) {
	probe := r.RunGangSampled(jobs[:1], 0, 0, nil)[0]
	if probe.Err != nil {
		return nil, fmt.Errorf("dpa: trace 0: %w", probe.Err)
	}
	if cut <= 0 {
		cut = math.MaxInt
	}
	row := min(int(probe.Stats.Cycles), cut)
	if gang <= 0 {
		gang = leakstat.DefaultGang
	}
	flat := make([]float64, len(jobs)*row)
	ts := &TraceSet{Traces: make([][]float64, len(jobs)), OrigLens: make([]int, len(jobs))}
	for i := range ts.Traces {
		ts.Traces[i] = flat[i*row : (i+1)*row : (i+1)*row]
	}
	err := sim.ForEach((len(jobs)+gang-1)/gang, workers, func(k int) error {
		lo, hi := k*gang, min((k+1)*gang, len(jobs))
		for i, res := range r.RunGangSampled(jobs[lo:hi], 0, uint64(row), ts.Traces[lo:hi]) {
			if res.Err != nil {
				return fmt.Errorf("dpa: trace %d: %w", lo+i, res.Err)
			}
			ts.OrigLens[lo+i] = int(res.Stats.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shortest, longest := row, 0
	for _, l := range ts.OrigLens {
		shortest, longest = min(shortest, l, cut), max(longest, min(l, cut))
	}
	for i := range ts.Traces {
		ts.Traces[i] = ts.Traces[i][:shortest]
	}
	ts.Window, ts.Truncated = trace.Window{Start: 0, End: shortest}, longest > shortest
	return ts, nil
}

// DifferenceOfMeans computes the DPA differential trace for one guess of the
// 6 sub-key bits feeding S-box box: traces are partitioned by the predicted
// output bit (0-3, MSB first) of that S-box in round 1, and the pointwise
// difference of the two group means is returned.
func DifferenceOfMeans(ts *TraceSet, box, bit int, guess uint32) []float64 {
	dom, _, _ := DifferenceOfMeansDetail(ts, box, bit, guess)
	return dom
}

// DifferenceOfMeansDetail is DifferenceOfMeans plus the partition sizes, so
// callers can tell a flat differential (masked traces) from a degenerate one
// (a selection bit that never split — n1 or n0 zero — where the difference
// is undefined and reported as all zeros rather than NaN/Inf). It is the
// one-guess view of the class-table core (classes.go).
func DifferenceOfMeansDetail(ts *TraceSet, box, bit int, guess uint32) (dom []float64, n1, n0 int) {
	dom, n1 = guessTrace(ts, StatDoM, box, bit, guess)
	return dom, n1, ts.Len() - n1
}

// GuessScore is the peak differential magnitude of one sub-key guess.
type GuessScore struct {
	Guess uint32
	Peak  float64
}

// BoxResult is the outcome of attacking one S-box.
type BoxResult struct {
	Box       int
	Bit       int
	Best      GuessScore
	RunnerUp  GuessScore
	AllScores [64]float64
	// Degenerate counts guesses whose prediction is constant over the trace
	// set: for DoM a selection bit that never split it (one group empty),
	// for CPA and CPA2 a constant Hamming weight. Both are inevitable with
	// very few traces. Such guesses score zero by definition; a result where
	// most guesses are degenerate says the set is too small to attack, not
	// that the target is masked.
	Degenerate int
}

// Margin returns Best.Peak / RunnerUp.Peak — the attack's confidence. A
// margin near 1 (or a tiny best peak) means the attack failed.
func (r BoxResult) Margin() float64 {
	if r.RunnerUp.Peak == 0 {
		return math.Inf(1)
	}
	return r.Best.Peak / r.RunnerUp.Peak
}

// AttackSBox runs the difference-of-means attack on every 6-bit guess for
// one S-box, scoring each guess by its peak |DoM|.
func AttackSBox(ts *TraceSet, box, bit int) BoxResult {
	return attackOne(ts, StatDoM, box, bit)
}

// AttackAll attacks all eight S-boxes using output bit `bit`.
func AttackAll(ts *TraceSet, bit int) [8]BoxResult { return attackAll(ts, StatDoM, bit) }

// Verify compares attack results against the true key, returning how many of
// the eight 6-bit sub-key chunks were recovered.
func Verify(results [8]BoxResult, key uint64) (recovered int, detail [8]bool) {
	for box, r := range results {
		truth := des.SubkeySixBits(key, box)
		if r.Best.Guess == truth {
			recovered++
			detail[box] = true
		}
	}
	return recovered, detail
}

// SPAResult summarises simple power analysis of a full trace.
type SPAResult struct {
	// Period is the dominant repetition period, in buckets.
	Period int
	// Strength is the normalised autocorrelation at Period (0..1).
	Strength float64
	// Rounds estimates how many repetitions fit in the analysed region.
	Rounds int
}

// SPA detects periodic structure (the 16 DES rounds of Figure 6) in a
// bucketed energy profile via normalised autocorrelation. bucket is the
// aggregation width in cycles; minPeriod/maxPeriod bound the search in
// buckets.
func SPA(totals []float64, bucket, minPeriod, maxPeriod int) SPAResult {
	series := trace.Bucket(totals, bucket)
	n := len(series)
	if n == 0 || minPeriod < 1 || maxPeriod <= minPeriod {
		return SPAResult{}
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	var variance float64
	for _, v := range series {
		variance += (v - mean) * (v - mean)
	}
	if variance == 0 {
		return SPAResult{}
	}
	corr := make([]float64, 0, maxPeriod-minPeriod+1)
	maxR := 0.0
	for lag := minPeriod; lag <= maxPeriod && lag < n; lag++ {
		var acc float64
		for i := 0; i+lag < n; i++ {
			acc += (series[i] - mean) * (series[i+lag] - mean)
		}
		r := acc / variance
		corr = append(corr, r)
		if r > maxR {
			maxR = r
		}
	}
	if maxR <= 0 {
		return SPAResult{}
	}
	// Harmonic disambiguation: multiples of the true period correlate about
	// as well as the period itself, so take the smallest lag within 95% of
	// the global maximum.
	best := SPAResult{}
	for i, r := range corr {
		if r >= 0.95*maxR {
			best = SPAResult{Period: minPeriod + i, Strength: r}
			break
		}
	}
	if best.Period > 0 {
		best.Rounds = n / best.Period
	}
	return best
}
