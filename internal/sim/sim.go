// Package sim is the session layer between the workloads and the
// cycle-accurate simulator: a Runner owns one compiled program plus one
// energy configuration and is the single way the rest of the system reaches
// the pipeline (internal/gang). Runner.Run executes one job as a one-lane
// run; Runner.RunBatch fans N independent jobs across a worker pool with
// per-worker reuse of the pipeline, memory and trace buffers, so multi-trace
// workloads (DPA trace collection, leak-check sweeps, policy comparisons)
// scale with cores instead of paying per-run wiring and allocation.
//
// Job setup: a job pokes its Writes into a freshly reset lane and, among
// them, a MaskRun — consecutive words of the splitmix64 MaskStream, named
// by stream state and drawn as they are stored — so a masked program's
// 4,096-word fresh-mask pool costs a job 32 bytes. One routine pokes every
// lane, one-lane or gang; Job.Pokes yields the words in that order.
//
// Determinism contract: a job's result depends only on the job — every
// worker starts from an identical power-on core (gang.Engine.Reset), jobs
// never share mutable state, and per-job randomness must be derived with
// DeriveSeed(base, index), never drawn from a shared stream during the
// batch. RunBatch therefore returns bit-identical results (traces, energy
// totals, statistics, memory read-backs) in job order regardless of worker
// count or scheduling.
//
// Cancellation: RunBatchContext and ForEachContext accept a context and
// check it between executions — an in-flight simulation always runs to its
// cycle budget, but no further job starts once the context is done.
// Cancellation never perturbs completed results: every job that ran is
// bit-identical to what an uncancelled batch would have produced for that
// index, and every job that did not run carries the context's error.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/isa"
	"desmask/internal/trace"
)

// DefaultMaxCycles bounds a job that sets no explicit budget (and whose
// runner sets none); it generously covers one full encryption of any of the
// shipped workloads.
const DefaultMaxCycles = 4_000_000

// Write pokes one word into data memory before a run. Writes are applied in
// slice order, with a job's mask run (Job.Pool) among them, so job setup is
// fully deterministic.
type Write struct {
	Addr uint32
	Val  uint32
}

// Read names a memory range to copy out after the run.
type Read struct {
	Addr  uint32
	Words int
}

// Stats joins the core's architectural counters with the energy meter's
// accumulation for one run.
type Stats struct {
	cpu.Stats
	// Energy is the run's accumulated energy, total and per component (pJ).
	// Zero for gang lanes — RunGangSampled and the probe-free jobs of a
	// batch with Options.GangWidth > 1, even a gang of one — which observe
	// energy only through a trace or a sample window.
	Energy energy.CycleEnergy
	// PeakPJ is the largest single-cycle energy of the run. Zero for gang
	// lanes.
	PeakPJ float64
}

// AvgPJPerCycle returns the mean per-cycle energy.
func (s Stats) AvgPJPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return s.Energy.Total / float64(s.Cycles)
}

// ProbeSpec declares the extra observation probes of a job. The zero value
// attaches nothing; PerRunMeterProbes builds the only other kind.
type ProbeSpec struct {
	perMeter func(meter *energy.Probe) []cpu.Probe
}

// PerRunMeterProbes builds a spec whose factory is called once per
// execution with the run's energy meter, which commits each cycle before
// any probe runs, so the returned probes can read each committed cycle's
// energy via meter.LastPJ()/Last() — in-flight trace reduction without
// materializing the trace. Every run gets fresh instances, so jobs that
// carry the spec fan out freely across batch workers.
func PerRunMeterProbes(fn func(meter *energy.Probe) []cpu.Probe) ProbeSpec {
	return ProbeSpec{perMeter: fn}
}

// isZero reports whether the spec attaches nothing — the condition under
// which a job needs no per-cycle observation and is eligible for a gang.
func (s ProbeSpec) isZero() bool { return s.perMeter == nil }

// instantiate returns the probes to attach for one run.
func (s ProbeSpec) instantiate(meter *energy.Probe) []cpu.Probe {
	if s.perMeter == nil {
		return nil
	}
	return s.perMeter(meter)
}

// Job is one independent simulation: input pokes, a cycle budget, and what
// to capture.
type Job struct {
	// Writes are applied to data memory, in order, before the first cycle.
	Writes []Write
	// Pool is a run of mask-stream words poked among Writes (see MaskRun
	// and Pokes): the fresh-mask pool of a masked program.
	Pool MaskRun
	// Reads are copied out of data memory after the run, into Result.Mem.
	Reads []Read
	// MaxCycles truncates the run; 0 uses the runner default.
	MaxCycles uint64
	// Trace captures the full per-cycle energy trace into Result.Trace.
	Trace bool
	// RequireHalt turns budget expiry into a job error (a *cpu.CycleLimitError
	// matching cpu.ErrCycleLimit) instead of the default Done=false partial
	// run, for callers that consider an unfinished program a failure.
	RequireHalt bool
	// Blocks has no effect: every job runs on the metered pipeline.
	//
	// Deprecated: the block-compiled engine it once selected is gone. The
	// field stays only so that code which still assigns it, the perfbench
	// benchmark module among it, keeps compiling; it is deleted once that
	// assignment is.
	Blocks bool
	// Probe declares the job's extra probes; see ProbeSpec. Probes run after
	// the pipeline has metered and recorded each cycle.
	Probe ProbeSpec
}

// Result is the outcome of one job.
type Result struct {
	// Stats accumulates the run's cycle/instruction/energy accounting. On
	// error it holds whatever had accumulated when the fault hit.
	Stats Stats
	// Done reports that the program halted within the cycle budget; false
	// with a nil Err means the budget expired first (a partial run, used
	// deliberately for first-round attack traces).
	Done bool
	// Trace is the captured per-cycle trace (Job.Trace), including EX-stage
	// PCs for window location.
	Trace *trace.Trace
	// Mem holds one slice per Job.Reads entry, in order.
	Mem [][]uint32
	// Regs is the architectural register file after the run.
	Regs [isa.NumRegs]uint32
	// Err is the job's failure, if any. A job skipped because the batch
	// context was cancelled carries that context's error.
	Err error
}

// JobError is a batch failure tied to the job that caused it: RunBatch and
// RunBatchContext report the lowest-index failing job this way, so callers
// multiplexing a batch across independent requests (the leakd service) can
// map the failure back to exactly one of them. It unwraps to the underlying
// cause, so errors.Is/As against cpu.ErrCycleLimit, context.Canceled,
// context.DeadlineExceeded and friends keep working.
type JobError struct {
	// Index is the failing job's position in the batch.
	Index int
	// Err is the underlying failure.
	Err error
}

func (e *JobError) Error() string {
	// A cycle-limit expiry (RequireHalt jobs) is a budget problem, not a
	// program fault; say so instead of surfacing a bare limit error.
	if errors.Is(e.Err, cpu.ErrCycleLimit) {
		return fmt.Sprintf("sim: job %d did not halt within its cycle budget: %v", e.Index, e.Err)
	}
	return fmt.Sprintf("sim: job %d: %v", e.Index, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Options configures batch execution.
type Options struct {
	// Workers sizes the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// GangWidth > 1 opts the batch into gang-scheduled lockstep execution:
	// runs of same-shaped, probe-free jobs are grouped into gangs of up to
	// GangWidth lanes sharing one fetch/decode/control computation per cycle
	// (internal/gang), with per-lane deopt replay as a one-lane run.
	// Results are bit-identical to scalar execution for any width and worker
	// count, except that gang-mode results carry no Stats.Energy/PeakPJ
	// accumulation. <= 1 disables gangs.
	GangWidth int
}

// resolve returns the effective worker count for n jobs.
func (o Options) resolve(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DeriveSeed expands a base seed into the independent seed of job index i
// (SplitMix64 over base+i), so randomized per-job inputs depend only on the
// base seed and the job's position — never on worker count or scheduling
// order.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Runner is a simulation session: one compiled program, one energy
// configuration, and a pool of reusable workers. It is safe for concurrent
// use.
type Runner struct {
	prog *asm.Program
	cfg  energy.Config

	// MaxCycles is the budget applied to jobs that set none; 0 means
	// DefaultMaxCycles. Set it once at construction time — it is read
	// concurrently by batch workers.
	MaxCycles uint64
	// GangCounts receives the outcome of every lane that runs in a gang of
	// two or more. NewRunner gives each runner its own set; a service may
	// point several runners at one shared set to total them. Like
	// MaxCycles, set it before the first run.
	GangCounts *GangCounters

	pool     sync.Pool // *worker
	uopsOnce sync.Once
	uops     []isa.UOp // predecoded on first use, shared read-only by every engine
	uopsErr  error
	// traceHint remembers the previous captured run length so batch
	// recorders pre-size their buffers instead of regrowing per cycle.
	traceHint atomic.Int64
	// cycles counts every simulated cycle the session has executed, for
	// service observability (leakd's /metrics).
	cycles atomic.Uint64
}

// GangCounters counts the lanes that ran in gangs of two or more: those
// completed in lockstep and those peeled off and replayed as one-lane runs,
// by deopt reason. It is safe for concurrent use.
type GangCounters struct {
	runs   atomic.Uint64
	deopts [len(gang.DeoptReasons)]atomic.Uint64
}

// Runs returns the number of lanes completed in lockstep.
func (c *GangCounters) Runs() uint64 { return c.runs.Load() }

// Deopts returns the number of lanes replayed for reason.
func (c *GangCounters) Deopts(reason gang.DeoptReason) uint64 {
	for k, r := range gang.DeoptReasons {
		if r == reason {
			return c.deopts[k].Load()
		}
	}
	return 0
}

// addDeopt counts one lane that left its gang with err, a *gang.DeoptError.
func (c *GangCounters) addDeopt(err error) {
	var d *gang.DeoptError
	if !errors.As(err, &d) {
		return
	}
	for k, r := range gang.DeoptReasons {
		if r == d.Reason {
			c.deopts[k].Add(1)
			return
		}
	}
}

// NewRunner builds a session for the compiled program under the given
// energy configuration.
func NewRunner(prog *asm.Program, cfg energy.Config) *Runner {
	return &Runner{prog: prog, cfg: cfg, GangCounts: new(GangCounters)}
}

// predecoded returns the session's micro-op table, predecoding it once.
func (r *Runner) predecoded() ([]isa.UOp, error) {
	r.uopsOnce.Do(func() { r.uops, r.uopsErr = gang.Predecode(r.prog) })
	return r.uops, r.uopsErr
}

// Program returns the session's compiled program.
func (r *Runner) Program() *asm.Program { return r.prog }

// Config returns the session's energy configuration.
func (r *Runner) Config() energy.Config { return r.cfg }

// CyclesSimulated returns the total simulated cycles executed by this
// session since construction, across all runs and batches.
func (r *Runner) CyclesSimulated() uint64 { return r.cycles.Load() }

// GangRuns returns the number of lanes completed in lockstep by gangs of two
// or more jobs, as counted in GangCounts.
func (r *Runner) GangRuns() uint64 { return r.GangCounts.Runs() }

// GangDeopts returns the number of lanes that entered a gang but were peeled
// off and replayed as one-lane runs, over every reason, as counted in
// GangCounts.
func (r *Runner) GangDeopts() uint64 {
	var n uint64
	for k := range r.GangCounts.deopts {
		n += r.GangCounts.deopts[k].Load()
	}
	return n
}

// worker bundles the per-worker reusable simulator state: the pipeline
// (one lane for scalar jobs, widened on first gang use) and the
// mirror-grouping scratch of gang runs.
type worker struct {
	e *gang.Engine

	gangReps   []int // mirror-grouping scratch: engine lane -> job index
	gangLaneOf []int // mirror-grouping scratch: job index -> engine lane
}

func (r *Runner) getWorker() (*worker, error) {
	if w, ok := r.pool.Get().(*worker); ok {
		return w, nil
	}
	uops, err := r.predecoded()
	if err != nil {
		return nil, err
	}
	e, err := gang.New(r.prog, uops, r.cfg, 1)
	if err != nil {
		return nil, err
	}
	return &worker{e: e}, nil
}

// budget returns the effective cycle budget of a job.
func (r *Runner) budget(job Job) uint64 {
	if job.MaxCycles > 0 {
		return job.MaxCycles
	}
	if r.MaxCycles > 0 {
		return r.MaxCycles
	}
	return DefaultMaxCycles
}

// reserveHint sizes a batch recorder: the previous captured length when
// known, otherwise the job's cycle budget, capped so a generous budget does
// not balloon a worker's buffers.
func (r *Runner) reserveHint(budget uint64) int {
	const maxReserve = 1 << 20
	hint := int(r.traceHint.Load())
	if hint <= 0 || uint64(hint) > budget {
		hint = int(budget)
	}
	if hint > maxReserve {
		hint = maxReserve
	}
	return hint
}

// runOn executes one job on a worker as a one-lane run that meters every
// cycle, so the result carries the run's energy totals. The worker is reset
// to power-on state first, so results are independent of whatever the
// worker ran before.
func (r *Runner) runOn(w *worker, job Job) Result {
	e := w.e
	if err := e.Reset(1); err != nil {
		return Result{Err: err}
	}
	if err := job.poke(e.Lane(0).Mem); err != nil {
		return Result{Err: err}
	}
	budget := r.budget(job)
	meter := e.EnableMeter()
	if job.Trace {
		e.EnableTrace(r.reserveHint(budget))
	}
	for _, p := range job.Probe.instantiate(meter) {
		e.Attach(p)
	}
	res := r.finish(&job, e, 0, e.Run(budget))
	res.Stats.Energy, res.Stats.PeakPJ = meter.Total(), meter.PeakPJ()
	return res
}

// finish builds the result of a job whose run on lane ended with runErr:
// nil when the program halted, a *cpu.CycleLimitError when the budget
// expired, otherwise the fault. A fault — or budget expiry under
// RequireHalt — keeps the partial statistics and registers but skips the
// trace and the memory read-back.
func (r *Runner) finish(job *Job, e *gang.Engine, lane int, runErr error) Result {
	ln := e.Lane(lane)
	res := Result{Stats: Stats{Stats: e.Stats()}, Regs: ln.Regs}
	r.cycles.Add(res.Stats.Cycles)
	switch {
	case runErr == nil:
		res.Done = true
	case errors.Is(runErr, cpu.ErrCycleLimit) && !job.RequireHalt:
	default:
		res.Err = runErr
		return res
	}
	if job.Trace {
		lt := e.LaneTrace(lane)
		res.Trace = &trace.Trace{
			Totals: append([]float64(nil), lt.Totals...),
			PCs:    append([]uint32(nil), lt.PCs...),
		}
		r.traceHint.Store(int64(res.Trace.Len()))
	}
	for _, rd := range job.Reads {
		words, err := ln.Mem.ReadWords(rd.Addr, rd.Words)
		if err != nil {
			res.Err = err
			return res
		}
		res.Mem = append(res.Mem, words)
	}
	return res
}

// Run executes one job on a pooled worker.
func (r *Runner) Run(job Job) Result {
	w, err := r.getWorker()
	if err != nil {
		return Result{Err: err}
	}
	defer r.pool.Put(w)
	return r.runOn(w, job)
}

// RunBatch executes every job across the worker pool and returns results in
// job order. Equivalent to RunBatchContext with a background context.
func (r *Runner) RunBatch(jobs []Job, opts Options) ([]Result, error) {
	return r.RunBatchContext(context.Background(), jobs, opts)
}

// RunBatchContext executes every job across the worker pool and returns
// results in job order. Workers pull whole execution units (gangUnits): one
// job each, or with Options.GangWidth > 1 one lockstep gang of consecutive
// same-shaped jobs, so a gang always lands on one worker.
//
// Workers check the context between executions: an in-flight simulation
// runs to completion, but once ctx is done no further job starts and every
// unexecuted job's Result carries the context's error. The returned error
// is a *JobError for the lowest-index failing job (all results are still
// returned, each carrying its own Err), so error reporting is as
// deterministic as the results themselves.
func (r *Runner) RunBatchContext(ctx context.Context, jobs []Job, opts Options) ([]Result, error) {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	cuts := r.gangUnits(jobs, opts.GangWidth)
	units := len(cuts) - 1
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := opts.resolve(units); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, werr := r.getWorker()
			if werr == nil {
				defer r.pool.Put(w)
			}
			for {
				u := int(next.Add(1) - 1)
				if u >= units {
					return
				}
				lo, hi := cuts[u], cuts[u+1]
				err := werr
				if err == nil {
					err = ctx.Err()
				}
				if err == nil {
					r.runUnit(w, jobs[lo:hi], results[lo:hi], opts.GangWidth)
					continue
				}
				for i := lo; i < hi; i++ {
					results[i] = Result{Err: err}
				}
			}
		}()
	}
	wg.Wait()
	for i := range results {
		if err := results[i].Err; err != nil {
			return results, &JobError{Index: i, Err: err}
		}
	}
	return results, nil
}

// ForEach runs fn(0), …, fn(n-1) across a worker pool (workers <= 0 uses
// GOMAXPROCS) and returns the lowest-index error. It is the scheduling
// primitive for batch work that is not a plain simulator job — compiling
// machines per policy, leak-check sweeps, ablation grids — with the same
// deterministic contract: fn must touch only state owned by its index.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachContext(context.Background(), n, workers, fn)
}

// ForEachContext is ForEach with cancellation: the context is checked
// before each call, an in-flight fn always completes, and indices skipped
// after cancellation report the context's error (so the lowest-index error
// the caller sees is deterministic for a given cancellation point).
func ForEachContext(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n)
	workers = Options{Workers: workers}.resolve(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
