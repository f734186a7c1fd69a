package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"desmask/internal/gang"
)

// Gang-mode session layer: Options.GangWidth > 1 opts a batch into
// gang-scheduled lockstep execution (internal/gang) for jobs that attach no
// probes. Same-shaped jobs are grouped — before any worker starts, so
// grouping never depends on worker count or scheduling — into gangs of up to
// GangWidth lanes sharing one control computation per cycle.
//
// Exactness contract: a lane either completes in lockstep bit-identical to a
// one-lane run (registers, memory, stats, per-cycle energy observation), or
// is peeled by the engine's deopt contract and transparently replayed as a
// one-lane run, which is exact by construction. Gang-mode results carry no
// Stats.Energy/PeakPJ accumulation — not even a replayed or single lane — so
// a result never reveals which path produced it.

// gangEligible reports whether a job may join a gang: it must attach no
// probes — probes observe one lane's cycles. Traced jobs are eligible: the
// engine records each lane's trace.
func (r *Runner) gangEligible(job *Job) bool {
	return job.Probe.isZero()
}

// RunGangSampled executes up to GangWidth same-program jobs as one lockstep
// gang on a pooled worker, sampling each lane's per-cycle energy for cycles
// [start, end) into the caller-owned bufs[i] (which must hold end-start
// values; bufs may be nil for no sampling). Results are returned in job
// order and are bit-identical to one-lane runs — lanes the gang cannot
// complete exactly are replayed as one-lane runs with the same sampling, and
// a single job is a one-lane run. Jobs must be gang-shaped: no Trace, no
// ProbeSpec (serve those through Run/RunBatch instead).
//
// This is the assessment hot path: leakstat feeds fixed-vs-random trace
// populations through it shard by shard, reusing the sample buffers across
// gangs so the steady state allocates nothing.
func (r *Runner) RunGangSampled(jobs []Job, start, end uint64, bufs [][]float64) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	w, err := r.getWorker()
	if err != nil {
		for i := range results {
			results[i] = Result{Err: err}
		}
		return results
	}
	defer r.pool.Put(w)
	r.runGangSampledOn(w, jobs, start, end, bufs, results, nil)
	return results
}

// runGangSampledOn is RunGangSampled on a caller-held worker, writing into
// results (indexed by idxs when non-nil, else by position).
func (r *Runner) runGangSampledOn(w *worker, jobs []Job, start, end uint64, bufs [][]float64, results []Result, idxs []int) {
	n := len(jobs)
	resAt := func(i int) *Result {
		if idxs != nil {
			return &results[idxs[i]]
		}
		return &results[i]
	}
	bufAt := func(i int) []float64 {
		if bufs == nil {
			return nil
		}
		return bufs[i]
	}
	// replay runs job i alone: a gang of one lane, whose result is exact.
	replay := func(i int) {
		var b [][]float64
		if bufs != nil {
			b = bufs[i : i+1]
		}
		if idxs != nil {
			r.runGangSampledOn(w, jobs[i:i+1], start, end, b, results, idxs[i:i+1])
		} else {
			r.runGangSampledOn(w, jobs[i:i+1], start, end, b, results[i:i+1], nil)
		}
	}

	budget := r.budget(jobs[0])
	for i := 1; i < n; i++ {
		if r.budget(jobs[i]) != budget || jobs[i].Trace != jobs[0].Trace {
			// Mixed-shape group: lockstep needs one shared budget. Callers
			// group uniformly; run each job alone rather than guess.
			for i := range jobs {
				replay(i)
			}
			return
		}
	}
	traced := jobs[0].Trace

	// Mirror grouping: jobs with bit-identical initial state (the same memory
	// pokes, onto identically reset lanes of the same program, under the same
	// budget) are deterministic replicas — one engine lane executes for all of
	// them and every mirror copies its results. TVLA's fixed population makes
	// this the common case: half of every assessment batch is the same job
	// repeated. Mirrors sharing a lane must also share the lane's observation
	// shape, so a job only mirrors one with an equally sized sample buffer.
	reps := w.gangReps[:0]
	laneOf := w.gangLaneOf[:0]
	for i := range jobs {
		lane := -1
		for l, ri := range reps {
			if writesEqual(jobs[i].Writes, jobs[ri].Writes) &&
				len(bufAt(i)) == len(bufAt(ri)) {
				lane = l
				break
			}
		}
		if lane < 0 {
			reps = append(reps, i)
			lane = len(reps) - 1
		}
		laneOf = append(laneOf, lane)
	}
	w.gangReps, w.gangLaneOf = reps, laneOf

	if w.e.Width() < len(reps) {
		uops, _ := r.predecoded() // the worker's first engine was built from it
		e, err := gang.New(r.prog, uops, r.cfg, len(reps))
		if err != nil {
			for i := range jobs {
				*resAt(i) = Result{Err: err}
			}
			return
		}
		w.e = e
	}
	e := w.e
	if err := e.Reset(len(reps)); err != nil {
		for i := range jobs {
			*resAt(i) = Result{Err: err}
		}
		return
	}
	if traced {
		e.EnableTrace(r.reserveHint(budget))
	} else if end > start {
		e.SetSampleWindow(start, end)
		for l, ri := range reps {
			e.SetLaneSampleBuf(l, bufAt(ri))
		}
	}
	for l, ri := range reps {
		for _, wr := range jobs[ri].Writes {
			if err := e.Lane(l).Mem.StoreWord(wr.Addr, wr.Val); err != nil {
				// A failed poke is a job-setup fault, reported per job.
				for i := range jobs {
					if len(reps) > 1 {
						replay(i)
					} else {
						*resAt(i) = Result{Err: err}
					}
				}
				return
			}
		}
	}

	// A one-lane run's error is final (exact fault or budget expiry); in a
	// wider gang a lane error is a deopt and the run error only reports
	// budget expiry for the lanes still live.
	runErr := e.Run(budget)
	var deopt []int
	for i := range jobs {
		l := laneOf[i]
		if len(reps) > 1 && e.LaneErr(l) != nil {
			r.GangCounts.addDeopt(e.LaneErr(l))
			deopt = append(deopt, i)
			continue
		}
		if n > 1 && e.LaneErr(l) == nil {
			r.GangCounts.runs.Add(1)
		}
		*resAt(i) = r.finish(&jobs[i], e, l, runErr)
		if i != reps[l] && !traced && end > start {
			// A mirror reproduces its representative's windowed samples.
			copy(bufAt(i), bufAt(reps[l]))
		}
	}
	// Replays reset the engine, so they run after every gang result is out.
	for _, i := range deopt {
		replay(i)
	}
}

// writesEqual reports whether two poke sequences are identical.
func writesEqual(a, b []Write) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gangUnits groups the batch's parallel jobs into execution units before any
// worker starts: runs of consecutive gang-eligible jobs with identical shape
// (budget, trace flag) become gangs of up to width lanes; everything else is
// a singleton scalar unit. Precomputing the grouping from the job list alone
// keeps results bit-identical for any worker count.
func (r *Runner) gangUnits(jobs []Job, par []int, width int) [][]int {
	units := make([][]int, 0, (len(par)+width-1)/width)
	var cur []int
	var curBudget uint64
	var curTrace bool
	flush := func() {
		if len(cur) > 0 {
			units = append(units, cur)
			cur = nil
		}
	}
	for _, i := range par {
		j := &jobs[i]
		if !r.gangEligible(j) {
			flush()
			units = append(units, []int{i})
			continue
		}
		b, tr := r.budget(*j), j.Trace
		if len(cur) > 0 && (b != curBudget || tr != curTrace) {
			flush()
		}
		curBudget, curTrace = b, tr
		cur = append(cur, i)
		if len(cur) == width {
			flush()
		}
	}
	flush()
	return units
}

// runUnit executes one scheduling unit on a worker: an ineligible singleton
// runs exactly as a gang-free batch would run it; a group — or a leftover
// eligible singleton, which keeps the gang result shape (no Energy/PeakPJ
// accumulation) — runs as a lockstep gang with per-lane deopt replay.
func (r *Runner) runUnit(w *worker, jobs []Job, unit []int, results []Result) {
	if len(unit) == 1 && !r.gangEligible(&jobs[unit[0]]) {
		results[unit[0]] = r.runOn(w, jobs[unit[0]])
		return
	}
	unitJobs := make([]Job, len(unit))
	for k, i := range unit {
		unitJobs[k] = jobs[i]
	}
	r.runGangSampledOn(w, unitJobs, 0, 0, nil, results, unit)
}

// runParGang fans the batch's parallel jobs across the pool in gang units.
// It mirrors the scalar fan-out loop of RunBatchContext, pulling whole units
// so a gang always lands on one worker.
func (r *Runner) runParGang(ctx context.Context, jobs []Job, par []int, results []Result, opts Options, wg *sync.WaitGroup) {
	units := r.gangUnits(jobs, par, opts.GangWidth)
	workers := opts.resolve(len(units))
	var next atomic.Int64
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, werr := r.getWorker()
			if werr == nil {
				defer r.pool.Put(w)
			}
			for {
				n := int(next.Add(1) - 1)
				if n >= len(units) {
					return
				}
				unit := units[n]
				switch {
				case werr != nil:
					for _, i := range unit {
						results[i] = Result{Err: werr}
					}
				case ctx.Err() != nil:
					for _, i := range unit {
						results[i] = Result{Err: ctx.Err()}
					}
				default:
					r.runUnit(w, jobs, unit, results)
				}
			}
		}()
	}
}
