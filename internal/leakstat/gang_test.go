package leakstat

// Gang-mode assessment properties: Config.Gang is a pure throughput knob.
// The t-vector — the verdict's identity — must be bit-identical to the
// scalar engine for every gang width, worker count, policy and ISA backend,
// and the coverage/error contract must not weaken.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/trace"
)

// assessDESGang is assessDES with an explicit machine and gang width.
func assessDESGang(t *testing.T, m *desprog.Machine, traces, workers, gangW int, maxCycles uint64) *Report {
	t.Helper()
	win, err := DESMaskedWindow(m, testKey, testPlain, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	// Gangs form within a shard (the shard is the reduction unit), so the
	// shard count must leave several traces per shard for lockstep to engage.
	// It is part of the verdict's identity, so reference and gang runs use
	// the same value.
	rep, err := Assess(DESKeySource(m, testKey, testPlain, 7, maxCycles), Config{
		NumTraces: traces,
		Seed:      7,
		Shards:    2,
		Workers:   workers,
		Gang:      gangW,
		Window:    win,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func requireSameT(t *testing.T, label string, got, ref *Report) {
	t.Helper()
	if len(got.T) != len(ref.T) {
		t.Fatalf("%s: T length %d vs %d", label, len(got.T), len(ref.T))
	}
	for j := range ref.T {
		if math.Float64bits(got.T[j]) != math.Float64bits(ref.T[j]) {
			t.Fatalf("%s: T[%d] differs: %x vs %x",
				label, j, math.Float64bits(got.T[j]), math.Float64bits(ref.T[j]))
		}
	}
	if got.MaxAbsT != ref.MaxAbsT || got.MaxTCycle != ref.MaxTCycle || got.Leak != ref.Leak {
		t.Fatalf("%s: verdict (%g@%d leak=%v) vs (%g@%d leak=%v)", label,
			got.MaxAbsT, got.MaxTCycle, got.Leak, ref.MaxAbsT, ref.MaxTCycle, ref.Leak)
	}
	if got.CyclesSimulated != ref.CyclesSimulated {
		t.Fatalf("%s: cycles %d vs %d", label, got.CyclesSimulated, ref.CyclesSimulated)
	}
}

// TestAssessGangBitIdentity is the assessment-level acceptance property:
// for every policy and ISA backend, the full t-vector of a gang-mode
// assessment is bit-identical to the scalar engine's for every (gang width,
// worker count) combination.
func TestAssessGangBitIdentity(t *testing.T) {
	combos := [][2]int{{1, 4}, {4, 1}, {4, 4}, {16, 16}}
	if !testing.Short() {
		combos = nil
		for _, g := range []int{1, 4, 16} {
			for _, w := range []int{1, 4, 16} {
				combos = append(combos, [2]int{g, w})
			}
		}
	}
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure} {
			t.Run(isaName+"/"+policy.String(), func(t *testing.T) {
				m, err := desprog.NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				ref := assessDESGang(t, m, 24, 2, 1, 6000)
				for _, gw := range combos {
					g, w := gw[0], gw[1]
					got := assessDESGang(t, m, 24, w, g, 6000)
					requireSameT(t, fmt.Sprintf("gang=%d workers=%d", g, w), got, ref)
				}
				if g := m.Runner().GangRuns(); g == 0 {
					t.Error("no trace ran in lockstep across the gang sweep")
				}
			})
		}
	}
}

// TestAssessDefaultGangMatchesOneLane: a Config that leaves Gang at zero
// runs DefaultGang-wide gangs, and its verdict is bit-identical to the
// explicit one-lane path (Gang: 1) — t-vector, verdict and simulated cycles —
// on DES under the unprotected, selective and boolean-mask policies on both
// ISAs and on the kernels. The kernels run every lane in lockstep: no deopt.
func TestAssessDefaultGangMatchesOneLane(t *testing.T) {
	if raceEnabled {
		t.Skip("TestAssessGangBitIdentity runs gangs across shard workers under the race detector")
	}
	const traces = 64
	// Two shards of 32 traces each, so the default fills gangs of 16.
	assess := func(t *testing.T, src Source, win trace.Window, gangW int) *Report {
		t.Helper()
		rep, err := Assess(src, Config{NumTraces: traces, Seed: 7, Shards: 2, Workers: 2, Gang: gangW, Window: win})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	policies := []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyBooleanMask}
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, policy := range policies {
			t.Run("des/"+isaName+"/"+policy.String(), func(t *testing.T) {
				const maxCycles = 6000
				m, err := desprog.NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				win, err := DESMaskedWindow(m, testKey, testPlain, maxCycles)
				if err != nil {
					t.Fatal(err)
				}
				src := DESKeySource(m, testKey, testPlain, 7, maxCycles)
				ref := assess(t, src, win, 1)
				requireSameT(t, "default gang", assess(t, src, win, 0), ref)
				if m.Runner().GangRuns() == 0 {
					t.Error("the default gang ran no lane in lockstep")
				}
			})
		}
	}
	for _, name := range []string{"tea", "aes128", "sha1"} {
		k, _ := kernels.ByName(name)
		for _, policy := range policies {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				m, err := kernels.BuildSimple(k, policy)
				if err != nil {
					t.Fatal(err)
				}
				secret, public, mask := kernels.TVLAInputs(k)
				reg, err := KernelMaskedWindowContext(context.Background(), m, secret, public, 0)
				if err != nil {
					t.Fatal(err)
				}
				src := KernelSecretSource(m, secret, public, mask, 7, 0)
				ref := assess(t, src, reg.Window, 1)
				requireSameT(t, "default gang", assess(t, src, reg.Window, 0), ref)
				if runs, deopts := m.Runner().GangRuns(), m.Runner().GangDeopts(); runs == 0 || deopts != 0 {
					t.Errorf("default gang: %d lanes in lockstep, %d deopts; want some and none", runs, deopts)
				}
			})
		}
	}
}

// TestAssessGangCoverageError: the gang path must fail a too-short window
// exactly as loudly as the scalar path.
func TestAssessGangCoverageError(t *testing.T) {
	m := desMachine(t, compiler.PolicyNone)
	src := DESKeySource(m, testKey, testPlain, 7, 3000)
	for _, gangW := range []int{1, 4} {
		_, err := Assess(src, Config{
			NumTraces: 8,
			Seed:      7,
			Gang:      gangW,
			Window:    trace.Window{Start: 0, End: 5000},
		})
		if err == nil {
			t.Fatalf("gang=%d: want coverage error, got nil", gangW)
		}
	}
}

// TestAssessSteadyStateAllocs pins the per-trace allocation budget of both
// engines: scratch (probes, sample buffers, gang lanes) is allocated per
// shard, never per trace, so the marginal cost of a trace is just its job
// construction plus the fixed result bookkeeping. The marginal cost is the
// difference between a 48- and a 16-trace assessment, per trace.
func TestAssessSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	const maxCycles = 3000
	// The budgets are dominated by per-trace job construction — one
	// pre-sized Write slice per job: ~130 entries unmasked, ~4,300 on
	// boolean-mask DES (key shares plus the 4,096-word mask pool) — plus the
	// random-population key derivation and the fixed Result bookkeeping.
	// Engine scratch is per shard and must not show up here.
	//
	// Gang and one-lane modes share one budget on masked sources too. A GC
	// empties the runner's worker pool, and each pool miss rebuilds a gang
	// engine, so gang mode stays within budget only while job garbage keeps
	// GCs rare and a rebuild reuses the runner's predecoded table.
	for _, tc := range []struct {
		name     string
		policy   compiler.Policy
		gangW    int
		maxAlloc float64
		maxKB    float64
	}{
		{"scalar", compiler.PolicyNone, 1, 16, 96},
		{"gang", compiler.PolicyNone, 8, 16, 96},
		{"boolean-mask/scalar", compiler.PolicyBooleanMask, 1, 16, 96},
		{"boolean-mask/gang", compiler.PolicyBooleanMask, 8, 16, 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := desMachine(t, tc.policy)
			win, err := DESMaskedWindow(m, testKey, testPlain, maxCycles)
			if err != nil {
				t.Fatal(err)
			}
			src := DESKeySource(m, testKey, testPlain, 7, maxCycles)
			assess := func(n int) (allocs, bytes float64) {
				return heapPerRun(t, func() {
					if _, err := Assess(src, Config{
						NumTraces: n,
						Seed:      7,
						Shards:    1,
						Workers:   1,
						Gang:      tc.gangW,
						Window:    win,
					}); err != nil {
						t.Fatal(err)
					}
				})
			}
			smallA, smallB := assess(16)
			largeA, largeB := assess(48)
			perTrace, kbPerTrace := (largeA-smallA)/32, (largeB-smallB)/32/1024
			if perTrace > tc.maxAlloc {
				t.Errorf("%.2f allocs per trace, want <= %.0f (fixed overhead %.0f)", perTrace, tc.maxAlloc, smallA)
			}
			if kbPerTrace > tc.maxKB {
				t.Errorf("%.1f KB allocated per trace, want <= %.0f", kbPerTrace, tc.maxKB)
			}
			t.Logf("%.1f allocs, %.1f KB per trace", perTrace, kbPerTrace)
		})
	}
}

// heapPerRun is testing.AllocsPerRun extended to heap bytes: the mean
// allocation count and bytes of fn over a few runs after a warm-up, on
// one P so no other goroutine's allocations are counted.
func heapPerRun(t *testing.T, fn func()) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	const runs = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
