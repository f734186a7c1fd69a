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
	// Gang > 1 runs each shard's traces through the gang-scheduled lockstep
	// engine in gangs of up to Gang lanes (sim.Options.GangWidth semantics):
	// one shared control computation per cycle, per-lane energy sampling,
	// and transparent one-lane replay for any lane that diverges. The
	// shard's accumulator sees the exact same per-trace sample stream in the
	// exact same order either way, so the verdict is bit-identical for any
	// Gang value — the knob only changes throughput. <= 1 runs every trace
	// as a one-lane run.
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
// are bit-identical to Assess.
func AssessContext(ctx context.Context, src Source, cfg Config) (*Report, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	parts := make([]*ShardAccum, p.shards)
	err = sim.ForEachContext(ctx, p.shards, cfg.Workers, func(s int) error {
		acc, serr := p.runShard(ctx, src, s)
		if serr != nil {
			return serr
		}
		parts[s] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FoldReport(cfg, parts)
}

// AssessShard runs exactly one shard of the assessment described by cfg:
// traces ShardRange(shard, …) of the population, reduced into a fresh
// accumulator pair. It executes the identical per-trace code path as
// AssessContext — AssessContext is a fan-out over AssessShard plus
// FoldReport — so a shard computed here (possibly in another process) and
// folded in shard order reproduces the single-node verdict bit for bit.
func AssessShard(ctx context.Context, src Source, cfg Config, shard int) (*ShardAccum, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= p.shards {
		return nil, fmt.Errorf("leakstat: shard %d out of range [0,%d)", shard, p.shards)
	}
	return p.runShard(ctx, src, shard)
}

// FoldReport merges per-shard accumulators in shard-index order — the one
// reduction tree, regardless of which worker or which machine produced each
// shard — and computes the verdict. parts must hold every shard of the
// normalized partition exactly once; the fold performs the exact Merge
// sequence of a single-node assessment, so the resulting t-vector is
// bit-identical to AssessContext over the same configuration.
func FoldReport(cfg Config, parts []*ShardAccum) (*Report, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	if len(parts) != p.shards {
		return nil, fmt.Errorf("leakstat: folding %d shard accumulators, want %d", len(parts), p.shards)
	}
	F, R := NewVecOrder(p.L, p.order), NewVecOrder(p.L, p.order)
	stateBytes := F.StateBytes() + R.StateBytes()
	var cycles uint64
	for s, acc := range parts {
		if acc == nil || acc.Fixed == nil || acc.Random == nil {
			return nil, fmt.Errorf("leakstat: missing accumulator for shard %d", s)
		}
		if acc.Shard != s {
			return nil, fmt.Errorf("leakstat: shard %d accumulator at fold position %d", acc.Shard, s)
		}
		stateBytes += acc.Fixed.StateBytes() + acc.Random.StateBytes()
		cycles += acc.Cycles
		if err := F.Merge(acc.Fixed); err != nil {
			return nil, err
		}
		if err := R.Merge(acc.Random); err != nil {
			return nil, err
		}
	}
	var t []float64
	if p.order >= 2 {
		t, err = WelchT2(F, R)
	} else {
		t, err = WelchT(F, R)
	}
	if err != nil {
		return nil, err
	}
	peak, at := MaxAbs(t)
	return &Report{
		NumTraces:       cfg.NumTraces,
		FixedN:          p.nFixed,
		RandomN:         cfg.NumTraces - p.nFixed,
		Shards:          p.shards,
		WindowStart:     p.win.Start,
		WindowEnd:       p.win.End,
		Order:           p.order,
		Threshold:       p.threshold,
		MaxAbsT:         clampFinite(peak),
		MaxTCycle:       p.win.Start + at,
		Leak:            peak > p.threshold,
		StateBytes:      stateBytes,
		CyclesSimulated: cycles,
		T:               t,
		Fixed:           F,
		Random:          R,
	}, nil
}

// plan is a validated, normalized assessment configuration plus the derived
// population split — everything shard execution and the fold agree on.
type plan struct {
	cfg       Config
	win       trace.Window
	shards    int
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
		order:     order,
		threshold: threshold,
		fixed:     fixed,
		nFixed:    nFixed,
		L:         win.Len(),
	}, nil
}

// runShard executes one shard's trace range into a fresh accumulator pair.
func (p *plan) runShard(ctx context.Context, src Source, s int) (*ShardAccum, error) {
	if src.Runner == nil || src.Job == nil {
		return nil, fmt.Errorf("leakstat: source needs a Runner and a Job constructor")
	}
	acc := &ShardAccum{Shard: s, Fixed: NewVecOrder(p.L, p.order), Random: NewVecOrder(p.L, p.order)}
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
// gangs of up to cfg.Gang lanes (one lane when Gang <= 1), then folds each
// lane's window samples into the accumulators in trace-index order — the
// same sequence of Vec operations for any gang width, so the fold is
// bit-exact. Every sample is overwritten before it is folded (the coverage
// check), so recycled buffers need no clearing.
func (p *plan) runGangShard(ctx context.Context, src Source, acc *ShardAccum, lo, hi int) error {
	width := max(p.cfg.Gang, 1)
	if n := hi - lo; width > n {
		width = n
	}
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
