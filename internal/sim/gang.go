package sim

import "desmask/internal/gang"

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
	r.runGangSampledOn(w, jobs, start, end, bufs, results)
	return results
}

// runGangSampledOn is RunGangSampled on a caller-held worker, writing into
// results.
func (r *Runner) runGangSampledOn(w *worker, jobs []Job, start, end uint64, bufs [][]float64, results []Result) {
	n := len(jobs)
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
		r.runGangSampledOn(w, jobs[i:i+1], start, end, b, results[i:i+1])
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
				results[i] = Result{Err: err}
			}
			return
		}
		w.e = e
	}
	e := w.e
	if err := e.Reset(len(reps)); err != nil {
		for i := range jobs {
			results[i] = Result{Err: err}
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
						results[i] = Result{Err: err}
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
		results[i] = r.finish(&jobs[i], e, l, runErr)
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

// gangUnits cuts the batch into execution units before any worker starts:
// runs of consecutive gang-eligible jobs with identical shape (budget, trace
// flag) become gangs of up to width lanes; every other job, and every job
// when width <= 1, is a unit of its own. Unit k is jobs[cuts[k]:cuts[k+1]].
// The cuts depend on the job list alone, so results are bit-identical for
// any worker count.
func (r *Runner) gangUnits(jobs []Job, width int) (cuts []int) {
	cuts = append(make([]int, 0, len(jobs)/max(width, 1)+2), 0)
	lo := 0
	for i := 1; i < len(jobs); i++ {
		a, b := &jobs[lo], &jobs[i]
		joins := width > 1 && i-lo < width && r.gangEligible(a) && r.gangEligible(b) &&
			r.budget(*a) == r.budget(*b) && a.Trace == b.Trace
		if !joins {
			cuts = append(cuts, i)
			lo = i
		}
	}
	return append(cuts, len(jobs))
}

// runUnit executes one unit on a worker: a lone job of a gang-free batch, or
// a lone probe-carrying job, runs as a metered one-lane run; a group — or a
// leftover eligible job of a gang batch, which keeps the gang result shape
// (no Energy/PeakPJ accumulation) — runs as a lockstep gang with per-lane
// deopt replay.
func (r *Runner) runUnit(w *worker, jobs []Job, results []Result, width int) {
	if len(jobs) == 1 && (width <= 1 || !r.gangEligible(&jobs[0])) {
		results[0] = r.runOn(w, jobs[0])
		return
	}
	r.runGangSampledOn(w, jobs, 0, 0, nil, results)
}
