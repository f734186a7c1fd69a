package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/energy"
	"desmask/internal/sim"
)

// keyrec-des-cpa: full 48-bit round-key CPA on unprotected DES from
// materialized traces, two analysts (closed-loop clients) at a time.
const (
	keyrecTraces  = 32
	keyrecBudget  = 25_000 // the round-1 S-box leak sits past cycle 12000
	keyrecClients = 2
	keyrecSetups  = 51
)

func keyrecBuild(r *Run) (*desprog.Machine, time.Duration, error) {
	start := time.Now()
	root := r.T.Begin("setup", -1, -1)
	defer r.T.End(root)
	b := r.T.Begin("compiler.build", root, -1)
	m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyNone}, energy.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	m.Runner() // predecode
	r.T.End(b)
	return m, time.Since(start), nil
}

// keyrecKey is the run's secret key, drawn from the workload seed.
func keyrecKey(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() }

type keyrecOutcome struct {
	ts  *dpa.TraceSet
	res dpa.FullKeyResult
}

// keyrecVerdict collects traces under key, attacks all eight S-boxes with
// CPA, completes the key against one known pair and scores the result.
func keyrecVerdict(r *Run, m *desprog.Machine, key uint64, v int) (keyrecOutcome, error) {
	root := r.T.Begin("verdict", -1, v)
	defer r.T.End(root)
	c := r.T.Begin("dpa.collect", root, v)
	ts, err := dpa.Collect(m, key, dpa.Config{
		NumTraces: keyrecTraces, Seed: sim.DeriveSeed(r.Seed, v), MaxCycles: keyrecBudget, Workers: 1})
	r.T.End(c)
	if err != nil {
		return keyrecOutcome{}, err
	}
	ref := r.T.Begin("des.reference", root, v)
	pt := ts.Plaintexts[0]
	ct := des.Encrypt(key, pt)
	r.T.End(ref)
	a := r.T.Begin("dpa.attack", root, v)
	res := dpa.FullKeyAttack(ts, dpa.StatCPA, pt, ct)
	r.T.End(a)
	vs := r.T.Begin("dpa.verify", root, v)
	res.VerifyAgainst(key)
	r.T.End(vs)
	out := keyrecOutcome{ts: ts, res: res}
	if res.Recovered != 8 || !res.OK {
		return out, fmt.Errorf("verdict %d: recovered %d/8 boxes, key ok=%v", v, res.Recovered, res.OK)
	}
	return out, nil
}

type keyrecPhase struct {
	lat     []float64
	errs    []error
	elapsed time.Duration
	alloc   float64 // MB per verdict over the phase
	last    keyrecOutcome
}

func keyrecMeasure(r *Run, m *desprog.Machine, key uint64, window time.Duration, minN int, after func(v int, o keyrecOutcome)) keyrecPhase {
	var ph keyrecPhase
	var mu sync.Mutex
	before := snapshot()
	n, el := closedLoop(keyrecClients, window, minN, func(_, v int) {
		t0 := time.Now()
		o, err := keyrecVerdict(r, m, key, v)
		lat := time.Since(t0).Seconds()
		mu.Lock()
		ph.lat = append(ph.lat, lat)
		ph.errs = append(ph.errs, err)
		if o.ts != nil {
			ph.last = o
		}
		mu.Unlock()
		if after != nil && o.ts != nil {
			after(v, o)
		}
	})
	ph.alloc = allocMB(before, snapshot()) / float64(max(n, 1))
	ph.elapsed = el
	return ph
}

func runKeyrec(r *Run) error {
	var m *desprog.Machine
	setups, err := timeSetups(keyrecSetups/2+1, func() (d time.Duration, err error) {
		m, d, err = keyrecBuild(r)
		return d, err
	})
	if err != nil {
		return err
	}
	key := keyrecKey(r.Seed)
	window := r.Window
	if r.Traced {
		window /= 2
	}
	snap := snapshot()
	ph := keyrecMeasure(r, m, key, window, r.minVerdicts(), nil)
	for _, err := range ph.errs {
		r.Verdict(err)
	}
	if ph.last.ts == nil {
		return fmt.Errorf("no verdict completed: %v", ph.errs)
	}
	r.Note("key %016X: last verdict recovered %d/8 boxes, completed key %016X ok=%v (%d traces, %d cycles)",
		key, ph.last.res.Recovered, ph.last.res.Key, ph.last.res.OK, keyrecTraces, keyrecBudget)

	if !r.Traced {
		setups, err := lateSetups(setups, keyrecSetups, func() (time.Duration, error) {
			_, d, err := keyrecBuild(r)
			return d, err
		})
		if err != nil {
			return err
		}
		return r.setEndToEnd(m, setups, ph.lat, ph.alloc, len(ph.lat), ph.elapsed)
	}

	r.setProcess(snap, len(ph.lat))
	r.T.Enable()
	for i := 0; i < keyrecSetups; i++ {
		if _, _, err := keyrecBuild(r); err != nil {
			return err
		}
	}
	var mu sync.Mutex
	var nsPerCycle, cycles, traceMB, boxes []float64
	tp := keyrecMeasure(r, m, key, window, 3, func(v int, o keyrecOutcome) {
		// Replay the verdict's acquisitions without trace capture: the
		// simulation and meter alone.
		jobs, err := keyrecReplayJobs(m, key, o.ts)
		if err != nil {
			r.Problem("replay job: %v", err)
			return
		}
		sp := r.T.Begin("sim.exec", -1, v)
		t0 := time.Now()
		res, err := m.Runner().RunBatch(jobs, sim.Options{Workers: 1})
		d := time.Since(t0)
		r.T.End(sp)
		if err != nil {
			r.Problem("replay: %v", err)
			return
		}
		var c uint64
		for _, x := range res {
			c += x.Stats.Cycles
		}
		mb := 0.0
		for _, tr := range o.ts.Traces {
			mb += float64(8*len(tr)) / 1e6
		}
		mu.Lock()
		nsPerCycle = append(nsPerCycle, float64(d.Nanoseconds())/float64(max(c, 1)))
		cycles = append(cycles, float64(c))
		traceMB = append(traceMB, mb)
		boxes = append(boxes, float64(o.res.Recovered))
		mu.Unlock()
	})
	for _, err := range tp.errs {
		r.Verdict(err)
	}
	if tp.last.ts == nil {
		return fmt.Errorf("no traced verdict completed: %v", tp.errs)
	}
	// The analysts have stopped, so the heap that one more replay allocates
	// is the simulation's own.
	jobs, err := keyrecReplayJobs(m, key, tp.last.ts)
	if err != nil {
		return err
	}
	before := snapshot()
	if _, err := m.Runner().RunBatch(jobs, sim.Options{Workers: 1}); err != nil {
		return err
	}
	r.Set("sim.alloc_kb_per_trace", allocKBPerTrace(before, snapshot(), len(jobs)))
	setLayerCompiler(r, m)
	spans := r.T.Spans()
	r.Set("dpa.collect_s", Median(Durations(spans, "dpa.collect")))
	r.Set("dpa.attack_s", Median(Durations(spans, "dpa.attack")))
	r.Set("dpa.trace_mb", Median(traceMB))
	r.Set("dpa.boxes_recovered", Median(boxes))
	r.Set("sim.exec_s", Median(Durations(spans, "sim.exec")))
	r.Set("sim.host_ns_per_cycle", Median(nsPerCycle))
	r.Set("sim.cycles_per_verdict", Median(cycles))
	r.Set("sim.gang_useful_ratio", 0)
	r.zeroLayers("leakstat.", "jobstore.", "server.")
	r.Note("sim.exec_s replays one verdict's %d acquisitions without trace capture; sim.gang_useful_ratio is 0 (no gang runs)", keyrecTraces)
	r.setTraceSummary(ph.lat, tp.lat, "verdict")
	return nil
}

// keyrecReplayJobs rebuilds the acquisitions of a trace set as jobs without
// trace capture.
func keyrecReplayJobs(m *desprog.Machine, key uint64, ts *dpa.TraceSet) ([]sim.Job, error) {
	jobs := make([]sim.Job, len(ts.Plaintexts))
	for i, pt := range ts.Plaintexts {
		job, err := m.EncryptJob(key, pt, keyrecBudget, false)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	return jobs, nil
}
