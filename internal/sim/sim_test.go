package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/sim"
)

// testSrc is a small masked kernel: enough cycles to make scheduling matter,
// secret-dependent output to make result mixups detectable.
const testSrc = `
	secure int key[4];
	int in[4];
	int out[4];
	void main() {
		int i;
		int acc;
		acc = 0;
		for (i = 0; i < 4; i = i + 1) {
			out[i] = (key[i] ^ in[i]) + acc;
			acc = acc + out[i];
		}
	}
`

func newTestRunner(t *testing.T) (*sim.Runner, map[string]uint32) {
	t.Helper()
	res, err := compiler.Compile(testSrc, compiler.PolicySelective)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	syms := map[string]uint32{}
	for _, name := range []string{"key", "in", "out"} {
		addr, ok := res.Program.Symbols[compiler.GlobalLabel(name)]
		if !ok {
			t.Fatalf("no global %q", name)
		}
		syms[name] = addr
	}
	return sim.NewRunner(res.Program, energy.DefaultConfig()), syms
}

// testJob builds the i-th batch job: per-job inputs derived from the job
// index via DeriveSeed, so every job's correct output is known.
func testJob(syms map[string]uint32, i int, capture bool) sim.Job {
	var job sim.Job
	job.Trace = capture
	seed := uint64(sim.DeriveSeed(7, i))
	for j := 0; j < 4; j++ {
		job.Writes = append(job.Writes,
			sim.Write{Addr: syms["key"] + uint32(4*j), Val: uint32(seed >> (8 * j) & 0xFF)},
			sim.Write{Addr: syms["in"] + uint32(4*j), Val: uint32(i*31 + j)},
		)
	}
	job.Reads = []sim.Read{{Addr: syms["out"], Words: 4}}
	return job
}

// wantOut mirrors the kernel in Go.
func wantOut(syms map[string]uint32, i int) []uint32 {
	seed := uint64(sim.DeriveSeed(7, i))
	out := make([]uint32, 4)
	acc := uint32(0)
	for j := 0; j < 4; j++ {
		k := uint32(seed >> (8 * j) & 0xFF)
		out[j] = (k ^ uint32(i*31+j)) + acc
		acc += out[j]
	}
	return out
}

func TestRunComputesKernel(t *testing.T) {
	r, syms := newTestRunner(t)
	for i := 0; i < 3; i++ {
		res := r.Run(testJob(syms, i, false))
		if res.Err != nil || !res.Done {
			t.Fatalf("job %d: done=%v err=%v", i, res.Done, res.Err)
		}
		if want := wantOut(syms, i); !reflect.DeepEqual(res.Mem[0], want) {
			t.Fatalf("job %d: out=%v want %v", i, res.Mem[0], want)
		}
		if res.Stats.Cycles == 0 || res.Stats.Energy.Total <= 0 {
			t.Fatalf("job %d: empty stats %+v", i, res.Stats)
		}
		if res.Stats.PeakPJ <= 0 || res.Stats.PeakPJ > res.Stats.Energy.Total {
			t.Fatalf("job %d: implausible peak %v", i, res.Stats.PeakPJ)
		}
	}
}

// TestRunBatchDeterministicAcrossWorkers is the determinism contract: the
// same batch must produce byte-identical results (traces, energy totals,
// stats, memory read-backs, registers) for every worker count.
func TestRunBatchDeterministicAcrossWorkers(t *testing.T) {
	r, syms := newTestRunner(t)
	const n = 24
	makeJobs := func() []sim.Job {
		jobs := make([]sim.Job, n)
		for i := range jobs {
			jobs[i] = testJob(syms, i, true)
		}
		return jobs
	}
	ref, err := r.RunBatch(makeJobs(), sim.Options{Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for i, res := range ref {
		if want := wantOut(syms, i); !reflect.DeepEqual(res.Mem[0], want) {
			t.Fatalf("job %d: out=%v want %v", i, res.Mem[0], want)
		}
		if res.Trace == nil || res.Trace.Len() == 0 || len(res.Trace.PCs) != res.Trace.Len() {
			t.Fatalf("job %d: missing trace", i)
		}
	}
	for _, workers := range []int{4, 16} {
		got, err := r.RunBatch(makeJobs(), sim.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if !reflect.DeepEqual(got[i].Trace.Totals, ref[i].Trace.Totals) {
				t.Fatalf("workers=%d job %d: trace totals differ", workers, i)
			}
			if !reflect.DeepEqual(got[i].Trace.PCs, ref[i].Trace.PCs) {
				t.Fatalf("workers=%d job %d: trace PCs differ", workers, i)
			}
			if got[i].Stats != ref[i].Stats {
				t.Fatalf("workers=%d job %d: stats differ:\n%+v\n%+v", workers, i, got[i].Stats, ref[i].Stats)
			}
			if !reflect.DeepEqual(got[i].Mem, ref[i].Mem) || got[i].Regs != ref[i].Regs {
				t.Fatalf("workers=%d job %d: memory/registers differ", workers, i)
			}
		}
	}
}

// TestConcurrentBatches drives several batches through one shared Runner at
// once — the scenario `go test -race` must certify: pooled workers may hop
// between batches, yet each batch's results stay bit-identical.
func TestConcurrentBatches(t *testing.T) {
	r, syms := newTestRunner(t)
	const n = 8
	jobs := make([]sim.Job, n)
	for i := range jobs {
		jobs[i] = testJob(syms, i, true)
	}
	ref, err := r.RunBatch(jobs, sim.Options{Workers: 1})
	if err != nil {
		t.Fatalf("reference batch: %v", err)
	}

	const batches = 4
	var wg sync.WaitGroup
	errc := make(chan error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := r.RunBatch(jobs, sim.Options{Workers: 4})
			if err != nil {
				errc <- err
				return
			}
			for i := range ref {
				if !reflect.DeepEqual(got[i].Trace.Totals, ref[i].Trace.Totals) ||
					got[i].Stats != ref[i].Stats ||
					!reflect.DeepEqual(got[i].Mem, ref[i].Mem) {
					errc <- fmt.Errorf("job %d diverged under concurrent batches", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestRunBudgetExpiry(t *testing.T) {
	r, syms := newTestRunner(t)
	job := testJob(syms, 0, true)
	job.MaxCycles = 25
	res := r.Run(job)
	if res.Err != nil {
		t.Fatalf("budget expiry must not be an error: %v", res.Err)
	}
	if res.Done {
		t.Fatal("Done=true for a 25-cycle budget")
	}
	if res.Trace.Len() != 25 || res.Stats.Cycles != 25 {
		t.Fatalf("partial run: trace len %d, cycles %d, want 25", res.Trace.Len(), res.Stats.Cycles)
	}
}

// TestRunBatchPerRunProbes verifies the batch-safe probe path: every job
// gets a fresh probe instance from its factory, and each sees exactly its
// own run.
func TestRunBatchPerRunProbes(t *testing.T) {
	r, syms := newTestRunner(t)
	const n = 8
	counts := make([]uint64, n)
	jobs := make([]sim.Job, n)
	for i := range jobs {
		i := i
		jobs[i] = testJob(syms, i, false)
		jobs[i].Probe = sim.PerRunMeterProbes(func(*energy.Probe) []cpu.Probe {
			return []cpu.Probe{cpu.ProbeFunc(func(cpu.CycleInfo) { counts[i]++ })}
		})
	}
	results, err := r.RunBatch(jobs, sim.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if counts[i] != res.Stats.Cycles {
			t.Fatalf("job %d: probe saw %d cycles, stats report %d", i, counts[i], res.Stats.Cycles)
		}
	}
}

// TestRequireHalt verifies the typed cycle-limit error: budget expiry on a
// RequireHalt job is a *cpu.CycleLimitError matching cpu.ErrCycleLimit, and
// RunBatch reports it as a budget problem — while program faults don't match.
func TestRequireHalt(t *testing.T) {
	r, syms := newTestRunner(t)
	job := testJob(syms, 0, false)
	job.MaxCycles = 25
	job.RequireHalt = true
	res := r.Run(job)
	if !errors.Is(res.Err, cpu.ErrCycleLimit) {
		t.Fatalf("RequireHalt expiry: got %v, want ErrCycleLimit", res.Err)
	}
	var cle *cpu.CycleLimitError
	if !errors.As(res.Err, &cle) || cle.Limit != 25 {
		t.Fatalf("want *cpu.CycleLimitError with Limit=25, got %#v", res.Err)
	}

	_, err := r.RunBatch([]sim.Job{job}, sim.Options{})
	if err == nil || !errors.Is(err, cpu.ErrCycleLimit) {
		t.Fatalf("batch error must match ErrCycleLimit, got %v", err)
	}

	// A genuine program fault must not look like a budget expiry.
	bad := testJob(syms, 0, false)
	bad.Writes = append([]sim.Write{}, bad.Writes...)
	bad.Writes[0].Addr = 0x2 // misaligned store faults during setup
	if res := r.Run(bad); res.Err == nil || errors.Is(res.Err, cpu.ErrCycleLimit) {
		t.Fatalf("program fault classified as cycle limit: %v", res.Err)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := sim.DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
		if s != sim.DeriveSeed(42, i) {
			t.Fatalf("DeriveSeed not deterministic at index %d", i)
		}
	}
	if sim.DeriveSeed(1, 0) == sim.DeriveSeed(2, 0) {
		t.Fatal("distinct bases collide at index 0")
	}
}

func TestForEach(t *testing.T) {
	const n = 50
	got := make([]int, n)
	if err := sim.ForEach(n, 8, func(i int) error {
		got[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d", i, v)
		}
	}

	// Error selection is by lowest index, not completion order.
	errA, errB := errors.New("a"), errors.New("b")
	err := sim.ForEach(n, 8, func(i int) error {
		switch i {
		case 3:
			return errB
		case 30:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errB) {
		t.Fatalf("want lowest-index error %v, got %v", errB, err)
	}
}
