package sim_test

// Cancellation-path tests for the session layer: RunBatchContext and
// ForEachContext must stop launching work once the context is done, leak no
// goroutines, report typed per-job errors, and — the flip side — behave
// bit-identically to the context-free entry points when never cancelled
// (asserted against the golden fixtures in golden_test.go).

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/sim"
)

// waitGoroutines polls until the goroutine count returns to within slack of
// base (background GC workers can come and go) or the deadline expires.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines alive, started with %d", n, base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunBatchContextCancelMidBatch cancels a large batch partway through:
// workers must stop picking up jobs, every unexecuted job must carry the
// context error, the batch error must be a *sim.JobError unwrapping to
// context.Canceled, and no worker goroutine may outlive the call.
func TestRunBatchContextCancelMidBatch(t *testing.T) {
	r, syms := newTestRunner(t)
	const n = 256
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	jobs := make([]sim.Job, n)
	for i := range jobs {
		jobs[i] = testJob(syms, i, false)
		jobs[i].Probe = sim.PerRunMeterProbes(func(*energy.Probe) []cpu.Probe {
			// Cancel once a handful of jobs have started; later jobs must
			// then be skipped.
			if ran.Add(1) == 8 {
				cancel()
			}
			return nil
		})
	}
	results, err := r.RunBatchContext(ctx, jobs, sim.Options{Workers: 4})
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	var je *sim.JobError
	if !errors.As(err, &je) {
		t.Fatalf("batch error is %T, want *sim.JobError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v does not unwrap to context.Canceled", err)
	}
	executed, skipped := 0, 0
	for i, res := range results {
		switch {
		case res.Err == nil:
			executed++
			// Every job that did run is bit-identical to an uncancelled run.
			if want := wantOut(syms, i); !reflect.DeepEqual(res.Mem[0], want) {
				t.Fatalf("job %d executed under cancellation diverged: %v want %v", i, res.Mem[0], want)
			}
		case errors.Is(res.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("job %d: unexpected error %v", i, res.Err)
		}
	}
	if executed == 0 || skipped == 0 {
		t.Fatalf("want a mix of executed and skipped jobs, got %d executed / %d skipped", executed, skipped)
	}
	if je.Index < 0 || je.Index >= n || !errors.Is(results[je.Index].Err, context.Canceled) {
		t.Fatalf("JobError.Index=%d does not name a cancelled job", je.Index)
	}
	waitGoroutines(t, base)
}

// TestRunBatchContextDeadline exercises the deadline path leakd relies on:
// an already-expired context runs nothing and reports DeadlineExceeded.
func TestRunBatchContextDeadline(t *testing.T) {
	r, syms := newTestRunner(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	jobs := []sim.Job{testJob(syms, 0, false), testJob(syms, 1, false)}
	results, err := r.RunBatchContext(ctx, jobs, sim.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("job %d: want DeadlineExceeded, got %v", i, res.Err)
		}
	}
}

// TestRunBatchContextUncancelledMatchesRunBatch is the determinism
// regression for the context plumbing: with a background context the new
// path must be bit-identical to RunBatch — traces, stats, memory, registers.
func TestRunBatchContextUncancelledMatchesRunBatch(t *testing.T) {
	r, syms := newTestRunner(t)
	const n = 16
	makeJobs := func() []sim.Job {
		jobs := make([]sim.Job, n)
		for i := range jobs {
			jobs[i] = testJob(syms, i, true)
		}
		return jobs
	}
	ref, err := r.RunBatch(makeJobs(), sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunBatchContext(context.Background(), makeJobs(), sim.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i].Trace.Totals, ref[i].Trace.Totals) ||
			got[i].Stats != ref[i].Stats ||
			!reflect.DeepEqual(got[i].Mem, ref[i].Mem) ||
			got[i].Regs != ref[i].Regs {
			t.Fatalf("job %d: context path diverged from RunBatch", i)
		}
	}
}

// TestRunBatchContextGoldenTrace ties the context path to the golden
// fixtures: an uncancelled RunBatchContext of the DES/selective encryption
// must reproduce the checked-in pre-refactor trace hash exactly.
func TestRunBatchContextGoldenTrace(t *testing.T) {
	want, ok := goldenEntry(t, "des", compiler.PolicySelective.String())
	if !ok {
		t.Skip("golden manifest not generated yet")
	}
	m, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.EncryptJob(goldenKey, goldenPlaintext, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	results, err := m.Runner().RunBatchContext(context.Background(),
		[]sim.Job{job, job}, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got := traceHash(res.Trace); got != want.TraceHash {
			t.Errorf("job %d: trace hash %s, want golden %s", i, got, want.TraceHash)
		}
	}
}

// TestForEachContextCancel verifies the scheduling primitive: cancelled
// indices report the context error and the goroutines drain.
func TestForEachContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := sim.ForEachContext(ctx, 128, 4, func(i int) error {
		if ran.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ran.Load(); got >= 128 {
		t.Fatalf("cancellation did not stop the sweep: %d calls ran", got)
	}
	waitGoroutines(t, base)
}

// TestJobErrorIdentity pins the typed batch error: index and cause survive
// for callers that map batch failures onto per-request responses.
func TestJobErrorIdentity(t *testing.T) {
	r, syms := newTestRunner(t)
	jobs := make([]sim.Job, 3)
	for i := range jobs {
		jobs[i] = testJob(syms, i, false)
	}
	jobs[1].Writes = append([]sim.Write{}, jobs[1].Writes...)
	jobs[1].Writes[0].Addr = 0x2 // misaligned store faults during setup
	_, err := r.RunBatch(jobs, sim.Options{})
	var je *sim.JobError
	if !errors.As(err, &je) {
		t.Fatalf("batch error is %T, want *sim.JobError", err)
	}
	if je.Index != 1 {
		t.Fatalf("JobError.Index = %d, want 1", je.Index)
	}
	if je.Err == nil || errors.Is(je.Err, cpu.ErrCycleLimit) {
		t.Fatalf("unexpected cause %v", je.Err)
	}
}
