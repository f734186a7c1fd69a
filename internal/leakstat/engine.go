package leakstat

import (
	"context"
	"fmt"
	"sync"

	"desmask/internal/sim"
	"desmask/internal/trace"
)

// Defaults for Config zero values.
const (
	// DefaultShards is the fixed partition count of the trace population.
	// The shard count — never the worker count — determines the reduction
	// tree, so it is part of a verdict's identity.
	DefaultShards = 32
	// DefaultThreshold is the conventional TVLA decision threshold on |t|.
	DefaultThreshold = 4.5
	// DefaultGang is the lockstep gang width of a Config that leaves Gang
	// at zero. A shard's gangs are capped by its trace count, so small
	// shards run narrower gangs.
	DefaultGang = 16
)

// Config parameterises one assessment.
type Config struct {
	// NumTraces is the total number of traces across both populations
	// (assignment is a deterministic seeded interleave, roughly half each).
	NumTraces int
	// Seed drives the fixed/random assignment; sources conventionally use
	// the same seed to derive their per-trace random inputs.
	Seed int64
	// Shards is the fixed population partition (0 = DefaultShards). Each
	// shard accumulates its contiguous index range in order and shards
	// merge in index order, so the result is a pure function of
	// (source, Seed, NumTraces, Shards, Window) — worker count and
	// scheduling cannot change a single bit of it.
	Shards int
	// Workers sizes the shard worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Gang is the lockstep gang width: each shard's traces run through the
	// gang-scheduled engine in gangs of up to Gang lanes (0 = DefaultGang):
	// one shared control computation per cycle, per-lane energy sampling,
	// and transparent one-lane replay for any lane that diverges. 1 (or
	// less) runs every trace as a one-lane run. The shard's accumulator
	// sees the exact same per-trace sample stream in the exact same order
	// either way, so the verdict is bit-identical for any Gang value — the
	// knob only changes throughput.
	Gang int
	// Order selects the statistical order of the test: 1 (or 0, the
	// default) is the first-order Welch t-test on the means; 2 is the
	// centered-second-moment test (WelchT2), which detects the
	// variance-domain leakage that first-order boolean masking leaves
	// behind. Order 2 tracks two extra moment vectors per shard — the
	// O(window) memory contract is unchanged, the constant doubles.
	Order int
	// Threshold is the |t| decision threshold (0 = DefaultThreshold).
	Threshold float64
	// Window is the half-open cycle range to assess. Every run must cover
	// it: a run that halts (or exhausts its budget) before Window.End is an
	// error, so truncation can never silently weaken a verdict.
	Window trace.Window
}

// Source supplies the trace population: one simulation session plus a job
// constructor. Job(i, fixed) must return the job of trace i — the fixed
// input when fixed, an input derived deterministically from i otherwise
// (sim.DeriveSeed keeps it independent of scheduling).
type Source struct {
	Runner *sim.Runner
	Job    func(i int, fixed bool) (sim.Job, error)
}

// Report is the outcome of one assessment.
type Report struct {
	NumTraces int `json:"traces"`
	FixedN    int `json:"fixed_n"`
	RandomN   int `json:"random_n"`
	Shards    int `json:"shards"`

	WindowStart int `json:"window_start"`
	WindowEnd   int `json:"window_end"`

	// Order is the statistical order the verdict was computed at.
	Order int `json:"order"`

	Threshold float64 `json:"threshold"`
	// MaxAbsT is the largest |t| over the window (clamped to MaxFloat64 if
	// a zero-variance mean difference produced ±Inf) and MaxTCycle the
	// absolute cycle where it occurred.
	MaxAbsT   float64 `json:"max_abs_t"`
	MaxTCycle int     `json:"max_t_cycle"`
	// Leak reports MaxAbsT > Threshold: the energy behavior is
	// data-dependent at TVLA confidence.
	Leak bool `json:"leak"`

	// StateBytes is the total accumulator footprint the assessment held —
	// O(Shards × window length), independent of NumTraces.
	StateBytes int `json:"state_bytes"`

	// CyclesSimulated is the total simulated cycles the assessment executed
	// across every trace (summed per shard in index order, so it is as
	// deterministic as the verdict itself).
	CyclesSimulated uint64 `json:"cycles_simulated"`

	// T is the per-sample t-statistic (plot/debug use; omitted from JSON).
	T []float64 `json:"-"`
	// Fixed and Random are the final merged population accumulators.
	Fixed  *Vec `json:"-"`
	Random *Vec `json:"-"`
}

// Assignment returns the deterministic fixed/random split for a seed: out[i]
// is true when trace i belongs to the fixed population. It is exposed so
// baselines and tests can reproduce the engine's population split exactly.
func Assignment(seed int64, numTraces int) []bool {
	out := make([]bool, numTraces)
	for i := range out {
		// A different derivation base than the per-trace input seeds, so
		// group membership and input values come from independent streams.
		out[i] = sim.DeriveSeed(^seed, i)&1 == 0
	}
	return out
}

// NumShards returns the normalized shard count of a configuration — the
// partition a coordinator must enumerate when fanning an assessment out as
// per-shard sub-jobs.
func NumShards(cfg Config) int {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > cfg.NumTraces {
		shards = cfg.NumTraces
	}
	return shards
}

// ShardRange returns the half-open trace index range [lo, hi) of shard s in
// the fixed contiguous partition. It is the one place the partition is
// defined; every executor — local, gang, remote worker — covers exactly this
// range for a shard, which is what makes the fold bit-identical no matter
// where shards ran.
func ShardRange(s, shards, numTraces int) (lo, hi int) {
	return s * numTraces / shards, (s + 1) * numTraces / shards
}

// ShardAccum is one shard's complete contribution to an assessment: the
// fixed- and random-population accumulators over the window plus the shard's
// simulated-cycle count. Accumulators are mergeable (Vec.Merge) and
// serializable (MarshalBinary) with exact float64 bits, so a shard computed
// on a remote worker folds into the coordinator's reduction bit-identically
// to one computed in-process.
type ShardAccum struct {
	// Shard is the shard index in [0, NumShards(cfg)).
	Shard int
	// Fixed and Random are the shard's population accumulators.
	Fixed  *Vec
	Random *Vec
	// Cycles is the total simulated cycles the shard's traces executed.
	Cycles uint64
}

// Assess runs the one-pass fixed-vs-random Welch t-test over cfg.NumTraces
// simulations drawn from src. Traces are never materialized: each run's
// windowed energy samples fold into its shard's accumulator pair, shards
// fan out across the worker pool, and the shard accumulators merge in fixed
// index order — the determinism contract of PR 1 extended to
// statistics: bit-identical verdicts for any worker count. Equivalent to
// AssessContext with a background context.
func Assess(src Source, cfg Config) (*Report, error) {
	return AssessContext(context.Background(), src, cfg)
}

// AssessContext is Assess under a cancellable context: shard workers check
// the context between trace executions, so a per-request deadline or a
// client disconnect stops the sweep within one simulation's latency. On
// cancellation every partial shard accumulator is discarded and only the
// context's error is returned — a cancelled assessment never yields a
// truncated (and therefore statistically weaker) verdict. Uncancelled runs
// are bit-identical to Assess. It is the shard driver (Fold.Run) over an
// empty fold.
func AssessContext(ctx context.Context, src Source, cfg Config) (*Report, error) {
	f, err := NewFold(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx, src, nil, nil)
}

// AssessShard runs exactly one shard of the assessment described by cfg:
// traces ShardRange(shard, …) of the population, reduced into a fresh
// accumulator pair. It executes the identical per-trace code path as
// AssessContext, so a shard computed here (possibly in another process) and
// folded in shard order reproduces the single-node verdict bit for bit.
func AssessShard(ctx context.Context, src Source, cfg Config, shard int) (*ShardAccum, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.runShard(ctx, src, shard, nil)
}

// FoldReport merges per-shard accumulators through a Fold — in shard-index
// order, the one reduction tree, regardless of which worker or which machine
// produced each shard — and computes the verdict. parts must hold every
// shard of the normalized partition exactly once; the resulting t-vector is
// bit-identical to AssessContext over the same configuration.
func FoldReport(cfg Config, parts []*ShardAccum) (*Report, error) {
	f, err := NewFold(cfg)
	if err != nil {
		return nil, err
	}
	if len(parts) != f.p.shards {
		return nil, fmt.Errorf("leakstat: folding %d shard accumulators, want %d", len(parts), f.p.shards)
	}
	for _, acc := range parts {
		if err := f.Add(acc); err != nil {
			return nil, err
		}
	}
	return f.Report()
}

// plan is a validated, normalized assessment configuration plus the derived
// population split — everything shard execution and the fold agree on.
type plan struct {
	cfg       Config
	win       trace.Window
	shards    int
	gang      int
	order     int
	threshold float64
	fixed     []bool
	nFixed    int
	L         int
}

func newPlan(cfg Config) (*plan, error) {
	if cfg.NumTraces < 4 {
		return nil, fmt.Errorf("leakstat: need at least 4 traces (2 per population), got %d", cfg.NumTraces)
	}
	order := cfg.Order
	if order == 0 {
		order = 1
	}
	if order != 1 && order != 2 {
		return nil, fmt.Errorf("leakstat: unsupported statistical order %d (want 1 or 2)", cfg.Order)
	}
	win := cfg.Window
	if win.Start < 0 || win.End <= win.Start {
		return nil, fmt.Errorf("leakstat: invalid window [%d,%d)", win.Start, win.End)
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	gang := cfg.Gang
	if gang == 0 {
		gang = DefaultGang
	}
	fixed := Assignment(cfg.Seed, cfg.NumTraces)
	nFixed := 0
	for _, f := range fixed {
		if f {
			nFixed++
		}
	}
	if nFixed < 2 || cfg.NumTraces-nFixed < 2 {
		return nil, fmt.Errorf("leakstat: degenerate assignment (%d fixed / %d random); add traces or change the seed",
			nFixed, cfg.NumTraces-nFixed)
	}
	return &plan{
		cfg:       cfg,
		win:       win,
		shards:    NumShards(cfg),
		gang:      max(gang, 1),
		order:     order,
		threshold: threshold,
		fixed:     fixed,
		nFixed:    nFixed,
		L:         win.Len(),
	}, nil
}

// runShard executes one shard's trace range into acc, emptied, or into a
// fresh accumulator pair when acc is nil. acc must be a pair of this plan.
func (p *plan) runShard(ctx context.Context, src Source, s int, acc *ShardAccum) (*ShardAccum, error) {
	if s < 0 || s >= p.shards {
		return nil, fmt.Errorf("leakstat: shard %d out of range [0,%d)", s, p.shards)
	}
	if src.Runner == nil || src.Job == nil {
		return nil, fmt.Errorf("leakstat: source needs a Runner and a Job constructor")
	}
	if acc == nil {
		acc = &ShardAccum{Fixed: NewVecOrder(p.L, p.order), Random: NewVecOrder(p.L, p.order)}
	} else {
		acc.Fixed.reset()
		acc.Random.reset()
	}
	acc.Shard, acc.Cycles = s, 0
	lo, hi := ShardRange(s, p.shards, p.cfg.NumTraces)
	if err := p.runGangShard(ctx, src, acc, lo, hi); err != nil {
		return nil, err
	}
	return acc, nil
}

// sampleBufs recycles the gang sample buffers across shards: a verdict runs
// every shard over one window.
var sampleBufs sync.Pool // *[]float64

// runGangShard feeds the shard's trace range through the lockstep engine in
// gangs of up to p.gang lanes, then folds each lane's window samples into
// the accumulators in trace-index order — the same sequence of Vec
// operations for any gang width, so the fold is bit-exact. Every sample is
// overwritten before it is folded (the coverage check), so recycled buffers
// need no clearing.
func (p *plan) runGangShard(ctx context.Context, src Source, acc *ShardAccum, lo, hi int) error {
	width := min(p.gang, hi-lo)
	flat, _ := sampleBufs.Get().(*[]float64)
	if flat == nil || cap(*flat) < width*p.L {
		s := make([]float64, width*p.L)
		flat = &s
	}
	defer sampleBufs.Put(flat)
	bufs := make([][]float64, width)
	for g := range bufs {
		bufs[g] = (*flat)[g*p.L : (g+1)*p.L]
	}
	jobs := make([]sim.Job, 0, width)
	idx := make([]int, 0, width)
	for i := lo; i < hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		jobs, idx = jobs[:0], idx[:0]
		for ; i < hi && len(jobs) < width; i++ {
			job, err := src.Job(i, p.fixed[i])
			if err != nil {
				return fmt.Errorf("leakstat: trace %d: %w", i, err)
			}
			// Gang-shape the job: the engine owns the observation, so
			// source-provided trace or probe requests are overridden,
			// never combined.
			job.Trace = false
			job.Probe = sim.ProbeSpec{}
			jobs = append(jobs, job)
			idx = append(idx, i)
		}
		results := src.Runner.RunGangSampled(jobs, uint64(p.win.Start), uint64(p.win.End), bufs[:len(jobs)])
		for k := range results {
			ti := idx[k]
			res := &results[k]
			if res.Err != nil {
				return fmt.Errorf("leakstat: trace %d: %w", ti, res.Err)
			}
			acc.Cycles += res.Stats.Cycles
			// The run must commit every cycle of the window.
			covered := 0
			if res.Stats.Cycles > uint64(p.win.Start) {
				covered = int(res.Stats.Cycles - uint64(p.win.Start))
				if covered > p.L {
					covered = p.L
				}
			}
			if covered != p.L {
				return fmt.Errorf("leakstat: trace %d covered %d/%d window samples — run ended before Window.End=%d",
					ti, covered, p.L, p.win.End)
			}
			vec := acc.Random
			if p.fixed[ti] {
				vec = acc.Fixed
			}
			// AddTrace performs exactly a BeginTrace + per-sample Set
			// sequence, so the fold is bit-exact.
			vec.AddTrace(bufs[k][:p.L])
		}
	}
	return nil
}
