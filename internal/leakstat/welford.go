// Package leakstat is the streaming leakage-assessment engine: a one-pass
// fixed-vs-random Welch t-test (TVLA, as used by modern countermeasure
// evaluations) over per-cycle energy traces, built on numerically stable
// Welford/Chan accumulators that merge across sim.Runner workers. Traces are
// reduced in-flight by a per-job probe reading the session's energy meter,
// so memory stays O(trace length) — never O(number of traces) — and the
// sharded reduction is bit-identical for every worker count.
//
// It is the statistical generalization of package leakcheck: leakcheck
// proves, on one concrete run, that no insecure instruction touched
// secret-derived data; leakstat measures, over thousands to millions of
// runs, that the energy behavior itself carries no statistically detectable
// data dependence.
package leakstat

import (
	"fmt"
	"math"
)

// Acc is a scalar Welford accumulator: running count, mean, and sum of
// squared deviations from the running mean (M2). Adding is numerically
// stable for any magnitude mix; Merge combines two independent
// accumulations with the Chan et al. parallel update.
type Acc struct {
	N    uint64
	Mean float64
	// M2 is the sum of squared deviations from the running mean; the sample
	// variance is M2/(N-1).
	M2 float64
}

// Add folds one observation into the accumulator.
func (a *Acc) Add(x float64) {
	a.N++
	d := x - a.Mean
	a.Mean += d / float64(a.N)
	a.M2 += d * (x - a.Mean)
}

// Merge folds another accumulator into a (Chan et al. pairwise update).
// Merging is exact bookkeeping for counts and stable for moments, but like
// all floating-point reductions its rounding depends on grouping — callers
// that need bit-identical results must fix the merge order (as the
// assessment engine does: shards merge in shard-index order).
func (a *Acc) Merge(b Acc) {
	if b.N == 0 {
		return
	}
	if a.N == 0 {
		*a = b
		return
	}
	n := a.N + b.N
	d := b.Mean - a.Mean
	fa, fb, fn := float64(a.N), float64(b.N), float64(n)
	a.Mean += d * fb / fn
	a.M2 += b.M2 + d*d*fa*fb/fn
	a.N = n
}

// Variance returns the sample variance (M2/(N-1)), zero below two
// observations.
func (a Acc) Variance() float64 {
	if a.N < 2 {
		return 0
	}
	return a.M2 / float64(a.N-1)
}

// Vec is a vector of per-sample Welford accumulators sharing one
// observation count: each absorbed trace contributes exactly one value to
// every sample position. The shared count lets the hot path hoist the 1/n
// factor to one reciprocal per trace (a multiply per sample instead of a
// divide), which keeps in-flight reduction at trace-recorder cost; the
// update sequence is still fixed, so results are deterministic.
//
// A Vec optionally tracks the third and fourth central-moment sums (M3, M4,
// Pébay one-pass updates) needed by the second-order (centered-second-moment)
// t-test. Moments are opt-in via NewVecOrder: when absent (M3 == nil) every
// update performs exactly the historical first-order arithmetic, so existing
// verdicts and serialized accumulators stay byte-identical.
type Vec struct {
	n   uint64
	inv float64 // 1/n for the trace currently being absorbed
	// Mean[j] is the running mean of sample j; M2[j] its sum of squared
	// deviations from that mean.
	Mean []float64
	M2   []float64
	// M3[j] and M4[j] are the sums of cubed / fourth-power deviations from
	// the running mean (nil unless the accumulator tracks higher moments).
	M3 []float64
	M4 []float64
}

// NewVec returns an empty first-order vector accumulator over traces of n
// samples.
func NewVec(n int) *Vec {
	return &Vec{Mean: make([]float64, n), M2: make([]float64, n)}
}

// NewVecOrder returns an empty vector accumulator for the given statistical
// order: 1 tracks mean/M2 (the historical accumulator), 2 additionally
// tracks M3/M4 for the centered-second-moment test.
func NewVecOrder(n, order int) *Vec {
	v := NewVec(n)
	if order >= 2 {
		v.M3 = make([]float64, n)
		v.M4 = make([]float64, n)
	}
	return v
}

// reset empties the accumulator. Cleared to +0, it is bit-identical to a
// fresh NewVecOrder of its length and order.
func (v *Vec) reset() {
	v.n, v.inv = 0, 0
	clear(v.Mean)
	clear(v.M2)
	clear(v.M3)
	clear(v.M4)
}

// Order returns the accumulator's statistical order (1 or 2).
func (v *Vec) Order() int {
	if v.M3 != nil {
		return 2
	}
	return 1
}

// Len returns the number of sample positions.
func (v *Vec) Len() int { return len(v.Mean) }

// N returns the number of absorbed traces.
func (v *Vec) N() uint64 { return v.n }

// BeginTrace opens the next trace: every sample position must then receive
// exactly one Set before the following BeginTrace (the streaming probe
// enforces this via its coverage count).
func (v *Vec) BeginTrace() {
	v.n++
	v.inv = 1 / float64(v.n)
}

// Set folds the current trace's value at sample j into the accumulator.
// The first-order path is the historical two-line Welford update, untouched;
// the moment path extends it with Pébay's one-pass M3/M4 updates (which use
// the pre-update M2/M3, so ordering matters).
func (v *Vec) Set(j int, x float64) {
	d := x - v.Mean[j]
	if v.M3 == nil {
		v.Mean[j] += d * v.inv
		v.M2[j] += d * (x - v.Mean[j])
		return
	}
	dn := d * v.inv
	v.Mean[j] += dn
	t1 := d * (x - v.Mean[j]) // = d²(n-1)/n, the M2 increment
	n := float64(v.n)
	v.M4[j] += t1*dn*dn*(n*n-3*n+3) + 6*dn*dn*v.M2[j] - 4*dn*v.M3[j]
	v.M3[j] += t1*dn*(n-2) - 3*dn*v.M2[j]
	v.M2[j] += t1
}

// AddTrace absorbs one whole materialized trace (the batch-analysis path
// of the gang shard fold and the dpa attacks). It performs exactly the
// BeginTrace + per-sample Set sequence, so folds stay bit-identical to the
// streaming path, with the per-trace constants of the moment updates
// computed once per trace instead of once per sample.
func (v *Vec) AddTrace(seg []float64) {
	if len(seg) != len(v.Mean) {
		panic(fmt.Sprintf("leakstat: trace of %d samples into a %d-sample accumulator", len(seg), len(v.Mean)))
	}
	v.BeginTrace()
	inv, mean, m2 := v.inv, v.Mean[:len(seg)], v.M2[:len(seg)]
	if v.M3 == nil {
		for j, x := range seg {
			d := x - mean[j]
			mean[j] += d * inv
			m2[j] += d * (x - mean[j])
		}
		return
	}
	n := float64(v.n)
	c4, c3 := n*n-3*n+3, n-2
	m3, m4 := v.M3[:len(seg)], v.M4[:len(seg)]
	for j, x := range seg {
		d := x - mean[j]
		dn := d * inv
		mean[j] += dn
		t1 := d * (x - mean[j])
		m4[j] += t1*dn*dn*c4 + 6*dn*dn*m2[j] - 4*dn*m3[j]
		m3[j] += t1*dn*c3 - 3*dn*m2[j]
		m2[j] += t1
	}
}

// Merge folds o into v sample-by-sample (Chan et al.; the Pébay parallel
// update when moments are tracked). Merge order must be fixed by the caller
// for bit-identical results. Accumulators of different orders don't merge.
func (v *Vec) Merge(o *Vec) error {
	if len(o.Mean) != len(v.Mean) {
		return fmt.Errorf("leakstat: merging accumulators of %d and %d samples", len(v.Mean), len(o.Mean))
	}
	if v.Order() != o.Order() {
		return fmt.Errorf("leakstat: merging order-%d and order-%d accumulators", v.Order(), o.Order())
	}
	if o.n == 0 {
		return nil
	}
	if v.n == 0 {
		v.n = o.n
		copy(v.Mean, o.Mean)
		copy(v.M2, o.M2)
		copy(v.M3, o.M3)
		copy(v.M4, o.M4)
		return nil
	}
	n := v.n + o.n
	fa, fb, fn := float64(v.n), float64(o.n), float64(n)
	for j := range v.Mean {
		d := o.Mean[j] - v.Mean[j]
		if v.M3 != nil {
			// Pébay parallel M4/M3 updates read the pre-merge M2/M3 of both
			// sides, so they come before the mean/M2 lines.
			d2 := d * d
			v.M4[j] += o.M4[j] + d2*d2*fa*fb*(fa*fa-fa*fb+fb*fb)/(fn*fn*fn) +
				6*d2*(fa*fa*o.M2[j]+fb*fb*v.M2[j])/(fn*fn) +
				4*d*(fa*o.M3[j]-fb*v.M3[j])/fn
			v.M3[j] += o.M3[j] + d*d2*fa*fb*(fa-fb)/(fn*fn) +
				3*d*(fa*o.M2[j]-fb*v.M2[j])/fn
		}
		v.Mean[j] += d * fb / fn
		v.M2[j] += o.M2[j] + d*d*fa*fb/fn
	}
	v.n = n
	return nil
}

// VarianceAt returns the sample variance of sample j.
func (v *Vec) VarianceAt(j int) float64 {
	if v.n < 2 {
		return 0
	}
	return v.M2[j] / float64(v.n-1)
}

// StateBytes returns the accumulator's in-memory footprint — the quantity
// that stays constant as traces stream through.
func (v *Vec) StateBytes() int {
	return 8 * (len(v.Mean) + len(v.M2) + len(v.M3) + len(v.M4))
}

// WelchT returns the per-sample Welch t-statistic between two populations:
// t[j] = (mean_f[j] - mean_r[j]) / sqrt(var_f[j]/n_f + var_r[j]/n_r).
// Samples where both populations have zero variance (constant energy — the
// norm across a correctly masked region) carry no evidence either way and
// yield t = 0 when the means agree; a mean difference with zero variance on
// both sides is a perfectly deterministic leak and yields ±Inf. Both
// populations need at least two traces.
func WelchT(f, r *Vec) ([]float64, error) {
	if f.Len() != r.Len() {
		return nil, fmt.Errorf("leakstat: population lengths differ: %d vs %d", f.Len(), r.Len())
	}
	if f.n < 2 || r.n < 2 {
		return nil, fmt.Errorf("leakstat: Welch t-test needs >= 2 traces per population (fixed %d, random %d)", f.n, r.n)
	}
	nf, nr := float64(f.n), float64(r.n)
	out := make([]float64, f.Len())
	for j := range out {
		d := f.Mean[j] - r.Mean[j]
		se2 := f.M2[j]/(nf-1)/nf + r.M2[j]/(nr-1)/nr
		switch {
		case se2 > 0:
			out[j] = d / math.Sqrt(se2)
		case d != 0:
			out[j] = math.Inf(sign(d))
		}
	}
	return out, nil
}

// WelchT2 returns the per-sample second-order t-statistic between two
// populations: the Schneider–Moradi centered-second-moment test, a Welch
// t-test on the preprocessed variable (x - μ)². With CM2 = M2/n (the biased
// central second moment) and CM4 = M4/n, the preprocessed variable has mean
// CM2 and variance CM4 - CM2², all read off the streaming accumulators:
//
//	t2[j] = (CM2_f - CM2_r) / sqrt((CM4_f - CM2_f²)/n_f + (CM4_r - CM2_r²)/n_r)
//
// First-order masking equalizes the means but not the variances of the two
// populations, which is exactly what this statistic detects. Both
// accumulators must track moments (NewVecOrder(n, 2)). Zero-variance
// semantics mirror WelchT: no evidence yields 0, a deterministic
// second-moment difference yields ±Inf.
func WelchT2(f, r *Vec) ([]float64, error) {
	if f.Len() != r.Len() {
		return nil, fmt.Errorf("leakstat: population lengths differ: %d vs %d", f.Len(), r.Len())
	}
	if f.M3 == nil || r.M3 == nil {
		return nil, fmt.Errorf("leakstat: second-order test needs moment-tracking accumulators (NewVecOrder order 2)")
	}
	if f.n < 2 || r.n < 2 {
		return nil, fmt.Errorf("leakstat: second-order t-test needs >= 2 traces per population (fixed %d, random %d)", f.n, r.n)
	}
	nf, nr := float64(f.n), float64(r.n)
	out := make([]float64, f.Len())
	for j := range out {
		cm2f, cm2r := f.M2[j]/nf, r.M2[j]/nr
		s2f := f.M4[j]/nf - cm2f*cm2f
		s2r := r.M4[j]/nr - cm2r*cm2r
		// CM4 >= CM2² always holds in exact arithmetic; rounding can push
		// the difference a hair negative for near-constant samples.
		if s2f < 0 {
			s2f = 0
		}
		if s2r < 0 {
			s2r = 0
		}
		d := cm2f - cm2r
		se2 := s2f/nf + s2r/nr
		switch {
		case se2 > 0:
			out[j] = d / math.Sqrt(se2)
		case d != 0:
			out[j] = math.Inf(sign(d))
		}
	}
	return out, nil
}

func sign(d float64) int {
	if d < 0 {
		return -1
	}
	return 1
}

// clampFinite maps ±Inf (a zero-variance deterministic leak) to
// MaxFloat64 so reports stay JSON-encodable; finite values pass through.
func clampFinite(x float64) float64 {
	if math.IsInf(x, 0) {
		return math.MaxFloat64
	}
	return x
}

// MaxAbs returns the largest |v| and its index (-1 when v is empty).
func MaxAbs(v []float64) (float64, int) {
	peak, at := 0.0, -1
	for j, x := range v {
		if a := math.Abs(x); at < 0 || a > peak {
			peak, at = a, j
		}
	}
	return peak, at
}
