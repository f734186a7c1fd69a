package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"desmask/internal/gang"
	"desmask/internal/sim"
)

// metrics is leakd's hand-rolled observability surface, rendered in the
// Prometheus text exposition format (no client library — the repo carries no
// dependencies). Everything is either an atomic counter/gauge or a
// mutex-guarded fixed-bucket histogram.
type metrics struct {
	queueDepth atomic.Int64 // requests admitted but not yet running
	running    atomic.Int64 // requests currently executing

	// jobs by terminal state: completed, failed, rejected, timeout.
	jobs sync.Map // string -> *atomic.Uint64

	cyclesSimulated atomic.Uint64

	// gang totals the lockstep lane outcomes of every runner the service
	// builds (sim.Runner.GangCounts).
	gang sim.GangCounters

	mu     sync.Mutex
	stages map[string]*histogram // per-stage latency: compile, window, assess
}

func newMetrics() *metrics {
	return &metrics{stages: make(map[string]*histogram)}
}

// jobDone counts one request reaching a terminal state.
func (m *metrics) jobDone(state string) {
	v, _ := m.jobs.LoadOrStore(state, new(atomic.Uint64))
	v.(*atomic.Uint64).Add(1)
}

// observeStage records one stage latency in seconds.
func (m *metrics) observeStage(stage string, seconds float64) {
	m.mu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = newHistogram()
		m.stages[stage] = h
	}
	m.mu.Unlock()
	h.observe(seconds)
}

// stageBuckets spans fast cache-hit windows (~ms) through large compile +
// assess runs (tens of seconds).
var stageBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60}

type histogram struct {
	mu     sync.Mutex
	counts []uint64 // one per bucket, + implicit +Inf via count
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(stageBuckets))}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, ub := range stageBuckets {
		if v <= ub {
			h.counts[i]++
		}
	}
}

// write renders a server snapshot; cache and runner totals are passed in by
// the handler so the metrics type stays free of server internals.
func (m *metrics) write(w io.Writer, cacheHits, cacheMisses uint64, cacheLen int) {
	fmt.Fprintf(w, "# HELP leakd_queue_depth Requests admitted and waiting for an execution slot.\n")
	fmt.Fprintf(w, "# TYPE leakd_queue_depth gauge\n")
	fmt.Fprintf(w, "leakd_queue_depth %d\n", m.queueDepth.Load())

	fmt.Fprintf(w, "# HELP leakd_jobs_running Requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE leakd_jobs_running gauge\n")
	fmt.Fprintf(w, "leakd_jobs_running %d\n", m.running.Load())

	fmt.Fprintf(w, "# HELP leakd_jobs_total Requests by terminal state.\n")
	fmt.Fprintf(w, "# TYPE leakd_jobs_total counter\n")
	var states []string
	m.jobs.Range(func(k, _ any) bool {
		states = append(states, k.(string))
		return true
	})
	sort.Strings(states)
	for _, s := range states {
		v, _ := m.jobs.Load(s)
		fmt.Fprintf(w, "leakd_jobs_total{state=%q} %d\n", s, v.(*atomic.Uint64).Load())
	}

	fmt.Fprintf(w, "# HELP leakd_program_cache_hits_total Compiled-program cache hits.\n")
	fmt.Fprintf(w, "# TYPE leakd_program_cache_hits_total counter\n")
	fmt.Fprintf(w, "leakd_program_cache_hits_total %d\n", cacheHits)
	fmt.Fprintf(w, "# HELP leakd_program_cache_misses_total Compiled-program cache misses.\n")
	fmt.Fprintf(w, "# TYPE leakd_program_cache_misses_total counter\n")
	fmt.Fprintf(w, "leakd_program_cache_misses_total %d\n", cacheMisses)
	fmt.Fprintf(w, "# HELP leakd_program_cache_entries Programs currently cached.\n")
	fmt.Fprintf(w, "# TYPE leakd_program_cache_entries gauge\n")
	fmt.Fprintf(w, "leakd_program_cache_entries %d\n", cacheLen)

	fmt.Fprintf(w, "# HELP leakd_cycles_simulated_total Simulated cycles executed by completed assessments.\n")
	fmt.Fprintf(w, "# TYPE leakd_cycles_simulated_total counter\n")
	fmt.Fprintf(w, "leakd_cycles_simulated_total %d\n", m.cyclesSimulated.Load())

	fmt.Fprintf(w, "# HELP leakd_gang_lane_runs_total Trace runs completed in lockstep by gangs of two or more lanes.\n")
	fmt.Fprintf(w, "# TYPE leakd_gang_lane_runs_total counter\n")
	fmt.Fprintf(w, "leakd_gang_lane_runs_total %d\n", m.gang.Runs())
	fmt.Fprintf(w, "# HELP leakd_gang_deopts_total Gang lanes replayed as one-lane runs, by deopt reason.\n")
	fmt.Fprintf(w, "# TYPE leakd_gang_deopts_total counter\n")
	for _, reason := range gang.DeoptReasons {
		fmt.Fprintf(w, "leakd_gang_deopts_total{reason=%q} %d\n", reason, m.gang.Deopts(reason))
	}

	fmt.Fprintf(w, "# HELP leakd_stage_latency_seconds Per-stage request latency.\n")
	fmt.Fprintf(w, "# TYPE leakd_stage_latency_seconds histogram\n")
	m.mu.Lock()
	stages := make([]string, 0, len(m.stages))
	for s := range m.stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	hs := make(map[string]*histogram, len(stages))
	for _, s := range stages {
		hs[s] = m.stages[s]
	}
	m.mu.Unlock()
	for _, s := range stages {
		h := hs[s]
		h.mu.Lock()
		for i, ub := range stageBuckets {
			fmt.Fprintf(w, "leakd_stage_latency_seconds_bucket{stage=%q,le=\"%g\"} %d\n", s, ub, h.counts[i])
		}
		fmt.Fprintf(w, "leakd_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", s, h.count)
		fmt.Fprintf(w, "leakd_stage_latency_seconds_sum{stage=%q} %g\n", s, h.sum)
		fmt.Fprintf(w, "leakd_stage_latency_seconds_count{stage=%q} %d\n", s, h.count)
		h.mu.Unlock()
	}
}
