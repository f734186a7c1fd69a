package leakstat

import (
	"math"
	"strings"
	"sync"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/trace"
)

const (
	testKey   = 0x133457799BBCDFF1
	testPlain = 0x0123456789ABCDEF
)

var desMachines struct {
	sync.Mutex
	m map[compiler.Policy]*desprog.Machine
}

func desMachine(t *testing.T, policy compiler.Policy) *desprog.Machine {
	t.Helper()
	desMachines.Lock()
	defer desMachines.Unlock()
	if desMachines.m == nil {
		desMachines.m = make(map[compiler.Policy]*desprog.Machine)
	}
	if m, ok := desMachines.m[policy]; ok {
		return m
	}
	m, err := desprog.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	desMachines.m[policy] = m
	return m
}

// assessDES runs a vary-key assessment over the first maxCycles cycles.
func assessDES(t *testing.T, policy compiler.Policy, traces, workers, shards int, maxCycles uint64) *Report {
	t.Helper()
	m := desMachine(t, policy)
	win, err := DESMaskedWindow(m, testKey, testPlain, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Assess(DESKeySource(m, testKey, testPlain, 7, maxCycles), Config{
		NumTraces: traces,
		Seed:      7,
		Shards:    shards,
		Workers:   workers,
		Window:    win,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAssessDeterministicAcrossWorkers: the acceptance-criterion invariant —
// the full T vector is bit-identical for workers = 1, 4, 16.
func TestAssessDeterministicAcrossWorkers(t *testing.T) {
	ref := assessDES(t, compiler.PolicyNone, 24, 1, 0, 6000)
	for _, workers := range []int{4, 16} {
		got := assessDES(t, compiler.PolicyNone, 24, workers, 0, 6000)
		if len(got.T) != len(ref.T) {
			t.Fatalf("workers=%d: T length %d vs %d", workers, len(got.T), len(ref.T))
		}
		for j := range ref.T {
			if math.Float64bits(got.T[j]) != math.Float64bits(ref.T[j]) {
				t.Fatalf("workers=%d: T[%d] differs: %x vs %x",
					workers, j, math.Float64bits(got.T[j]), math.Float64bits(ref.T[j]))
			}
		}
		if got.MaxAbsT != ref.MaxAbsT || got.MaxTCycle != ref.MaxTCycle || got.Leak != ref.Leak {
			t.Fatalf("workers=%d: verdict (%g@%d leak=%v) vs (%g@%d leak=%v)", workers,
				got.MaxAbsT, got.MaxTCycle, got.Leak, ref.MaxAbsT, ref.MaxTCycle, ref.Leak)
		}
	}
}

// TestAssessShardCountChangesNothingStatistically: different shard counts
// are different (all valid) reduction trees; verdicts must agree.
func TestAssessShardCountChangesNothing(t *testing.T) {
	a := assessDES(t, compiler.PolicyNone, 20, 2, 4, 6000)
	b := assessDES(t, compiler.PolicyNone, 20, 2, 10, 6000)
	if a.Leak != b.Leak {
		t.Fatalf("shard count changed the verdict: %v vs %v", a.Leak, b.Leak)
	}
	if !relClose(a.MaxAbsT, b.MaxAbsT, 1e-9) {
		t.Fatalf("shards=4 peak %g vs shards=10 peak %g", a.MaxAbsT, b.MaxAbsT)
	}
}

// TestAssessDESVerdicts: unprotected DES leaks the key through the key
// permutation's energy; the selective and all-secure policies' masked builds
// are energy-flat across keys — t identically zero over the whole window.
func TestAssessDESVerdicts(t *testing.T) {
	none := assessDES(t, compiler.PolicyNone, 16, 4, 0, 6000)
	if !none.Leak || none.MaxAbsT <= DefaultThreshold {
		t.Fatalf("unprotected DES: max|t|=%g, want leak above %g", none.MaxAbsT, DefaultThreshold)
	}
	all := assessDES(t, compiler.PolicyAllSecure, 16, 4, 0, 6000)
	if all.Leak || all.MaxAbsT != 0 {
		t.Fatalf("all-secure DES: max|t|=%g leak=%v, want exactly 0 / no leak", all.MaxAbsT, all.Leak)
	}
	sel := assessDES(t, compiler.PolicySelective, 16, 4, 0, 6000)
	if sel.Leak || sel.MaxAbsT != 0 {
		t.Fatalf("selective DES: max|t|=%g leak=%v, want exactly 0 / no leak", sel.MaxAbsT, sel.Leak)
	}
	if sel.FixedN+sel.RandomN != 16 || sel.FixedN < 2 || sel.RandomN < 2 {
		t.Fatalf("population split %d/%d", sel.FixedN, sel.RandomN)
	}
	// The streaming engine's footprint is the accumulators, O(shards × L).
	wantState := (sel.Shards + 1) * 2 * 2 * 8 * (sel.WindowEnd - sel.WindowStart)
	if sel.StateBytes != wantState {
		t.Fatalf("StateBytes=%d, want %d", sel.StateBytes, wantState)
	}
}

// TestAssessCoverageError: a window the runs cannot cover (budget expires
// first) must fail loudly, never silently assess a shorter window.
func TestAssessCoverageError(t *testing.T) {
	m := desMachine(t, compiler.PolicyNone)
	src := DESKeySource(m, testKey, testPlain, 7, 3000)
	_, err := Assess(src, Config{
		NumTraces: 8,
		Seed:      7,
		Window:    trace.Window{Start: 0, End: 5000},
	})
	if err == nil || !strings.Contains(err.Error(), "window samples") {
		t.Fatalf("want coverage error, got %v", err)
	}
}

func TestAssessValidation(t *testing.T) {
	m := desMachine(t, compiler.PolicyNone)
	src := DESKeySource(m, testKey, testPlain, 7, 3000)
	if _, err := Assess(Source{}, Config{NumTraces: 8, Window: trace.Window{End: 10}}); err == nil {
		t.Fatal("want error for empty source")
	}
	if _, err := Assess(src, Config{NumTraces: 3, Window: trace.Window{End: 10}}); err == nil {
		t.Fatal("want error below 4 traces")
	}
	if _, err := Assess(src, Config{NumTraces: 8, Window: trace.Window{Start: 5, End: 5}}); err == nil {
		t.Fatal("want error for empty window")
	}
}

func TestWindowClamp(t *testing.T) {
	w := trace.Window{Start: 10, End: 100}
	if c := w.Clamp(50); c.Start != 10 || c.End != 50 {
		t.Fatalf("got %+v", c)
	}
	if c := w.Clamp(5); c.Len() > 0 {
		t.Fatalf("window past the bound must clamp empty, got %+v", c)
	}
	if c := w.Clamp(200); c != w {
		t.Fatalf("bound past the window must not move it, got %+v", c)
	}
}
