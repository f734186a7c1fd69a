package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// tvla-bmask2-gang: order-2 TVLA of boolean-masked DES at gang width 16, one
// verdict at a time, its 32 shards spread over two worker goroutines.
const (
	tvlaTraces  = 1024
	tvlaGang    = 16
	tvlaBudget  = 12_000 // covers the order-2 leak near cycle 9.8k
	tvlaWorkers = 2
	tvlaSetups  = 31
)

// minVerdicts is the least number of verdicts a measured phase completes:
// enough for a tail percentile with tailBeyond samples beyond it when the
// end-to-end metrics are reported, a few for a median otherwise.
func (r *Run) minVerdicts() int {
	if r.Traced {
		return 3
	}
	return tailBeyond + 1
}

func tvlaBuild(r *Run) (*desprog.Machine, trace.Window, time.Duration, error) {
	start := time.Now()
	root := r.T.Begin("setup", -1, -1)
	defer r.T.End(root)
	b := r.T.Begin("compiler.build", root, -1)
	m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyBooleanMask}, energy.DefaultConfig())
	if err != nil {
		return nil, trace.Window{}, 0, err
	}
	m.Runner() // predecode
	r.T.End(b)
	w := r.T.Begin("leakstat.window", root, -1)
	win, err := leakstat.DESMaskedWindow(m, fixedKey, fixedPlain, tvlaBudget)
	r.T.End(w)
	return m, win, time.Since(start), err
}

func tvlaConfig(seed int64, win trace.Window) leakstat.Config {
	return leakstat.Config{NumTraces: tvlaTraces, Seed: seed, Workers: tvlaWorkers, Gang: tvlaGang, Order: 2, Window: win}
}

// tvlaVerdict runs one assessment through the public shard API: build the
// source, run every shard (two at a time), fold.
func tvlaVerdict(r *Run, m *desprog.Machine, win trace.Window, v int) (*leakstat.Report, []*leakstat.ShardAccum, error) {
	root := r.T.Begin("verdict", -1, v)
	defer r.T.End(root)
	s := r.T.Begin("leakstat.source", root, v)
	src := leakstat.DESKeySource(m, fixedKey, fixedPlain, r.Seed, tvlaBudget)
	r.T.End(s)
	cfg := tvlaConfig(r.Seed, win)
	parts, err := runShards(r, src, cfg, root, v)
	if err != nil {
		return nil, nil, err
	}
	f := r.T.Begin("leakstat.fold", root, v)
	rep, err := leakstat.FoldReport(cfg, parts)
	r.T.End(f)
	return rep, parts, err
}

// runShards calls leakstat.AssessShard for every shard of cfg on
// cfg.Workers goroutines.
func runShards(r *Run, src leakstat.Source, cfg leakstat.Config, parent, v int) ([]*leakstat.ShardAccum, error) {
	n := leakstat.NumShards(cfg)
	parts := make([]*leakstat.ShardAccum, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sp := r.T.Begin("leakstat.shard", parent, v)
				parts[i], errs[i] = leakstat.AssessShard(context.Background(), src, cfg, i)
				r.T.End(sp)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// sameBits reports whether two t-vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameAccum reports whether two shard accumulators encode identically.
func sameAccum(a, b *leakstat.ShardAccum) (bool, error) {
	ea, err := a.MarshalBinary()
	if err != nil {
		return false, err
	}
	eb, err := b.MarshalBinary()
	if err != nil {
		return false, err
	}
	return bytes.Equal(ea, eb), nil
}

// tvlaPhase measures verdicts for window and returns their latencies,
// per-verdict allocation and outcomes, plus the last verdict's shards.
type tvlaPhase struct {
	lat, alloc []float64
	errs       []error
	elapsed    time.Duration
	rep        *leakstat.Report
	parts      []*leakstat.ShardAccum
}

func tvlaMeasure(r *Run, m *desprog.Machine, win trace.Window, window time.Duration, minN int, after func(v int, parts []*leakstat.ShardAccum)) tvlaPhase {
	var ph tvlaPhase
	var ref []float64
	runner := m.Runner()
	_, el := closedLoop(1, window, minN, func(_, v int) {
		deopts := runner.GangDeopts()
		before := snapshot()
		t0 := time.Now()
		rep, parts, err := tvlaVerdict(r, m, win, v)
		lat := time.Since(t0).Seconds()
		a := allocMB(before, snapshot())
		if err == nil {
			switch {
			case ref == nil:
				ref = rep.T
			case !sameBits(ref, rep.T):
				err = fmt.Errorf("verdict %d: t-vector differs from verdict 0", v)
			}
		}
		if d := runner.GangDeopts() - deopts; err == nil && d != 0 {
			err = fmt.Errorf("verdict %d: %d gang deopts", v, d)
		}
		ph.lat = append(ph.lat, lat)
		ph.alloc = append(ph.alloc, a)
		ph.errs = append(ph.errs, err)
		if err == nil {
			ph.rep, ph.parts = rep, parts
		}
		if after != nil && parts != nil {
			after(v, parts)
		}
	})
	ph.elapsed = el
	return ph
}

func runTVLA(r *Run) error {
	var m *desprog.Machine
	var win trace.Window
	setups, err := timeSetups(tvlaSetups/2+1, func() (d time.Duration, err error) {
		m, win, d, err = tvlaBuild(r)
		return d, err
	})
	if err != nil {
		return err
	}
	window := r.Window
	if r.Traced {
		window /= 2
	}
	snap := snapshot()
	ph := tvlaMeasure(r, m, win, window, r.minVerdicts(), nil)
	if ph.rep == nil {
		return fmt.Errorf("no verdict completed: %v", ph.errs)
	}
	// A failed scalar recomputation fails the verdict whose shard it checked.
	if err := checkScalarShard(r, m, win, ph.parts); err != nil && ph.errs[len(ph.errs)-1] == nil {
		ph.errs[len(ph.errs)-1] = err
	}
	for _, err := range ph.errs {
		r.Verdict(err)
	}
	r.Note("verdict: max|t|=%.4f at cycle %d, leak=%v (order 2, %d traces, window [%d,%d))",
		ph.rep.MaxAbsT, ph.rep.MaxTCycle, ph.rep.Leak, tvlaTraces, win.Start, win.End)

	if !r.Traced {
		setups, err := lateSetups(setups, tvlaSetups, func() (time.Duration, error) {
			_, _, d, err := tvlaBuild(r)
			return d, err
		})
		if err != nil {
			return err
		}
		return r.setEndToEnd(m, setups, ph.lat, Median(ph.alloc), len(ph.lat), ph.elapsed)
	}

	// Traced phase: the same setups and verdicts with spans, plus replays of
	// single layers between verdicts.
	r.setProcess(snap, len(ph.lat))
	r.T.Enable()
	for i := 0; i < tvlaSetups; i++ {
		if _, _, _, err := tvlaBuild(r); err != nil {
			return err
		}
	}
	runner := m.Runner()
	runs0, deopts0 := runner.GangRuns(), runner.GangDeopts()
	src := leakstat.DESKeySource(m, fixedKey, fixedPlain, r.Seed, tvlaBudget)
	cfg := tvlaConfig(r.Seed, win)
	var nsPerCycle, encBytes, simAlloc []float64
	tp := tvlaMeasure(r, m, win, window, 3, func(v int, parts []*leakstat.ShardAccum) {
		total := 0
		for _, p := range parts {
			sp := r.T.Begin("leakstat.encode", -1, v)
			b, err := p.MarshalBinary()
			r.T.End(sp)
			if err != nil {
				r.Problem("encode shard %d: %v", p.Shard, err)
			}
			total += len(b)
		}
		encBytes = append(encBytes, float64(total))
		ns, kb := replayGangExec(r, src, cfg, v)
		nsPerCycle = append(nsPerCycle, ns...)
		simAlloc = append(simAlloc, kb)
	})
	for _, err := range tp.errs {
		r.Verdict(err)
	}
	if tp.rep == nil {
		return fmt.Errorf("no traced verdict completed: %v", tp.errs)
	}
	setLayerCompiler(r, m)
	spans := r.T.Spans()
	shard := Median(Durations(spans, "leakstat.shard"))
	exec := Median(Durations(spans, "sim.exec"))
	r.Set("leakstat.window_s", Median(Durations(spans, "leakstat.window")))
	r.Set("leakstat.shard_s", shard)
	r.Set("leakstat.accumulate_s", shard-exec)
	r.Set("leakstat.fold_s", Median(Durations(spans, "leakstat.fold")))
	r.Set("leakstat.encode_s", Median(Durations(spans, "leakstat.encode")))
	r.Set("leakstat.encode_bytes", Median(encBytes))
	r.Set("leakstat.state_bytes", float64(tp.rep.StateBytes))
	r.Set("sim.exec_s", exec)
	r.Set("sim.host_ns_per_cycle", Median(nsPerCycle))
	r.Set("sim.alloc_kb_per_trace", Median(simAlloc))
	r.Set("sim.cycles_per_verdict", float64(tp.rep.CyclesSimulated))
	runs, deopts := runner.GangRuns()-runs0, runner.GangDeopts()-deopts0
	r.Set("sim.gang_useful_ratio", float64(runs-deopts)/float64(max(runs, 1)))
	r.zeroLayers("dpa.", "jobstore.", "server.")
	r.Note("leakstat.accumulate_s is derived: leakstat.shard_s - sim.exec_s")
	r.setTraceSummary(ph.lat, tp.lat, "verdict")
	return nil
}

// checkScalarShard recomputes one shard of the run's assessment on the
// scalar core (Gang 1); its accumulator must encode bit-identically to the
// gang engine's.
func checkScalarShard(r *Run, m *desprog.Machine, win trace.Window, parts []*leakstat.ShardAccum) error {
	cfg := tvlaConfig(r.Seed, win)
	cfg.Gang = 1
	k := int(uint64(r.Seed) % uint64(len(parts)))
	src := leakstat.DESKeySource(m, fixedKey, fixedPlain, r.Seed, tvlaBudget)
	acc, err := leakstat.AssessShard(context.Background(), src, cfg, k)
	if err != nil {
		return err
	}
	same, err := sameAccum(acc, parts[k])
	if err == nil && !same {
		err = fmt.Errorf("shard %d: scalar (gang 1) accumulator differs from gang %d", k, tvlaGang)
	}
	return err
}

// replayGangExec times the simulation alone for two shards of verdict v:
// the shard's jobs go through Runner.RunGangSampled exactly as AssessShard
// feeds them, without the Welford accumulation. It returns host ns per
// simulated cycle of each replay and the heap the gang runs allocated per
// trace, in KB. Verdicts run one at a time, so nothing else allocates
// between the two readings.
func replayGangExec(r *Run, src leakstat.Source, cfg leakstat.Config, v int) ([]float64, float64) {
	n := leakstat.NumShards(cfg)
	fixed := leakstat.Assignment(cfg.Seed, cfg.NumTraces)
	jobs := make([][]sim.Job, tvlaWorkers)
	bufs := make([][][]float64, tvlaWorkers)
	traces := 0
	for w := range jobs {
		k := (tvlaWorkers*v + w) % n
		lo, hi := leakstat.ShardRange(k, n, cfg.NumTraces)
		for i := lo; i < hi; i++ {
			job, err := src.Job(i, fixed[i])
			if err != nil {
				r.Problem("replay job %d: %v", i, err)
				return nil, 0
			}
			job.Trace, job.Blocks, job.Probe = false, false, sim.ProbeSpec{}
			jobs[w] = append(jobs[w], job)
		}
		traces += hi - lo
		bufs[w] = make([][]float64, cfg.Gang)
		for i := range bufs[w] {
			bufs[w][i] = make([]float64, cfg.Window.Len())
		}
	}
	out := make([]float64, tvlaWorkers)
	before := snapshot()
	var wg sync.WaitGroup
	for w := 0; w < tvlaWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cycles uint64
			sp := r.T.Begin("sim.exec", -1, v)
			t0 := time.Now()
			for g := 0; g < len(jobs[w]); g += cfg.Gang {
				batch := jobs[w][g:min(g+cfg.Gang, len(jobs[w]))]
				for _, res := range src.Runner.RunGangSampled(batch, uint64(cfg.Window.Start), uint64(cfg.Window.End), bufs[w][:len(batch)]) {
					if res.Err != nil {
						r.Problem("replay: %v", res.Err)
					}
					cycles += res.Stats.Cycles
				}
			}
			d := time.Since(t0)
			r.T.End(sp)
			out[w] = float64(d.Nanoseconds()) / float64(max(cycles, 1))
		}(w)
	}
	wg.Wait()
	return out, allocKBPerTrace(before, snapshot(), traces)
}

// setLayerCompiler records the build-time and static-code metrics of m.
func setLayerCompiler(r *Run, m *desprog.Machine) {
	r.Set("compiler.build_s", Median(Durations(r.T.Spans(), "compiler.build")))
	secure := 0
	for _, in := range m.Res.Program.Text {
		if in.Secure {
			secure++
		}
	}
	r.Set("compiler.instrs", float64(len(m.Res.Program.Text)))
	r.Set("compiler.secure_instrs", float64(secure))
}
