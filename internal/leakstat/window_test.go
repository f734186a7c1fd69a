package leakstat

import (
	"context"
	"fmt"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/trace"
)

// fullProbeRegion is the window search on a full probe run, the way the
// window functions located windows before their probe run stopped at the
// budget: locate the region on the whole trace, then clamp it.
func fullProbeRegion(w trace.Window, maxCycles uint64) (Region, bool) {
	reg := Region{Window: w}
	if maxCycles > 0 {
		reg = Region{Window: w.Clamp(int(maxCycles)), Truncated: w.End > int(maxCycles)}
	}
	return reg, reg.Len() > 0
}

// probeBudgets are the budgets every window is checked at: no budget, the
// budgets the CLIs and experiments use, and the cycles on each side of the
// region's own boundaries.
func probeBudgets(edges ...int) []uint64 {
	budgets := []uint64{0, 300, 6000, 12000, 25000}
	for _, e := range edges {
		for _, b := range []int{e - 1, e, e + 1} {
			if b > 0 {
				budgets = append(budgets, uint64(b))
			}
		}
	}
	return budgets
}

// desRegion locates the masked region on the DES encryption of
// (key, plaintext).
func desRegion(ctx context.Context, m *desprog.Machine, key, plaintext uint64, maxCycles uint64) (Region, error) {
	job, err := m.EncryptJob(key, plaintext, 0, true)
	if err != nil {
		return Region{}, err
	}
	return MaskedWindowContext(ctx, &m.Machine, job, maxCycles)
}

// kernelRegion locates the masked region on a kernel run of (secret,
// public).
func kernelRegion(ctx context.Context, m *kernels.Machine, secret, public []uint32, maxCycles uint64) (Region, error) {
	job, err := m.Job(secret, public, true)
	if err != nil {
		return Region{}, err
	}
	return MaskedWindowContext(ctx, &m.Machine, job, maxCycles)
}

func checkRegion(t *testing.T, label string, got Region, err error, want Region, ok bool) {
	t.Helper()
	if !ok {
		if err == nil {
			t.Errorf("%s: got %+v, want an empty-window error", label, got)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	if got != want {
		t.Errorf("%s: got %+v, want %+v", label, got, want)
	}
}

// TestBoundedProbeMatchesFullProbe: a probe run that stops at the budget
// locates the same window, and the same truncation, as a full probe run —
// for the DES masked region and round 1 under every policy, and for the
// kernels' masked regions, on both ISAs.
func TestBoundedProbeMatchesFullProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, arithmetic only; about 25x slower under the race detector")
	}
	ctx := context.Background()
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, policy := range compiler.Policies() {
			t.Run("des/"+isaName+"/"+policy.String(), func(t *testing.T) {
				m, err := desprog.NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				full, _, err := m.Trace(testKey, testPlain)
				if err != nil {
					t.Fatal(err)
				}
				entry, err := m.EntryPC(desprog.FuncOutputPermutation)
				if err != nil {
					t.Fatal(err)
				}
				masked := trace.Window{Start: 0, End: full.Len()}
				for i, pc := range full.PCs {
					if pc == entry {
						masked.End = i
						break
					}
				}
				round1, err := m.RoundWindow(full, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range probeBudgets(masked.End, round1.Start, round1.End) {
					got, err := desRegion(ctx, m, testKey, testPlain, b)
					want, ok := fullProbeRegion(masked, b)
					checkRegion(t, fmt.Sprintf("masked window, budget %d", b), got, err, want, ok)

					got, err = DESRound1WindowContext(ctx, m, testKey, testPlain, b)
					want, ok = fullProbeRegion(round1, b)
					checkRegion(t, fmt.Sprintf("round-1 window, budget %d", b), got, err, want, ok)
				}
			})
		}
		for _, name := range []string{"tea", "aes128", "sha1"} {
			k, _ := kernels.ByName(name)
			for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyBooleanMask} {
				t.Run(name+"/"+isaName+"/"+policy.String(), func(t *testing.T) {
					m, err := kernels.Build(k, compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					secret, public, _ := kernels.TVLAInputs(k)
					_, full, err := m.Trace(secret, public)
					if err != nil {
						t.Fatal(err)
					}
					end, err := m.MaskedRegionEnd(full)
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range probeBudgets(end) {
						got, err := kernelRegion(ctx, m, secret, public, b)
						want, ok := fullProbeRegion(trace.Window{Start: 0, End: end}, b)
						checkRegion(t, fmt.Sprintf("masked window, budget %d", b), got, err, want, ok)
					}
				})
			}
		}
	}
}

// TestWindowTruncationReported pins the case a budget shorter than the
// masked region used to hide: `tvla -policy none -traces 16 -max 300`
// assesses [0,300) of unprotected DES and must say the window is cut short.
func TestWindowTruncationReported(t *testing.T) {
	m := desMachine(t, compiler.PolicyNone)
	ctx := context.Background()
	reg, err := desRegion(ctx, m, testKey, testPlain, 300)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Region{Window: trace.Window{Start: 0, End: 300}, Truncated: true}); reg != want {
		t.Fatalf("budget 300: got %+v, want %+v", reg, want)
	}
	whole, err := desRegion(ctx, m, testKey, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Truncated {
		t.Fatalf("no budget: %+v reported truncated", whole)
	}
	reg, err = desRegion(ctx, m, testKey, testPlain, uint64(whole.End))
	if err != nil {
		t.Fatal(err)
	}
	if reg != whole {
		t.Fatalf("budget at the region end: got %+v, want the whole region %+v", reg, whole)
	}
}

// TestMaskedRegionEnds pins the masked region the shared locator finds on
// DES (three policies, both ISAs) and on the kernels, without a budget and
// under a 2,000-cycle budget that cuts every region short.
func TestMaskedRegionEnds(t *testing.T) {
	const budget = 2000
	ctx := context.Background()
	for _, tc := range []struct {
		workload, isa string
		policy        compiler.Policy
		end           int
	}{
		{"des", "pisa", compiler.PolicyNone, 180686},
		{"des", "pisa", compiler.PolicySelective, 180686},
		{"des", "pisa", compiler.PolicyBooleanMask, 267762},
		{"des", "rv32", compiler.PolicyNone, 180630},
		{"des", "rv32", compiler.PolicySelective, 180630},
		{"des", "rv32", compiler.PolicyBooleanMask, 267706},
		{"tea", "pisa", compiler.PolicySelective, 2634},
		{"tea", "pisa", compiler.PolicyBooleanMask, 5798},
		{"aes128", "pisa", compiler.PolicySelective, 38506},
		{"aes128", "pisa", compiler.PolicyBooleanMask, 60510},
		{"sha1", "pisa", compiler.PolicySelective, 17307},
		{"sha1", "pisa", compiler.PolicyBooleanMask, 29356},
	} {
		t.Run(tc.workload+"/"+tc.isa+"/"+tc.policy.String(), func(t *testing.T) {
			target, _ := isa.TargetByName(tc.isa)
			opt := compiler.Options{Policy: tc.policy, Target: target}
			var locate func(maxCycles uint64) (Region, error)
			if tc.workload == "des" {
				m, err := desprog.NewFull(opt, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				locate = func(b uint64) (Region, error) { return desRegion(ctx, m, testKey, testPlain, b) }
			} else {
				k, _ := kernels.ByName(tc.workload)
				m, err := kernels.Build(k, opt, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				secret, public, _ := kernels.TVLAInputs(k)
				locate = func(b uint64) (Region, error) { return kernelRegion(ctx, m, secret, public, b) }
			}
			for _, want := range []struct {
				budget uint64
				reg    Region
			}{
				{0, Region{Window: trace.Window{End: tc.end}}},
				{budget, Region{Window: trace.Window{End: budget}, Truncated: true}},
			} {
				got, err := locate(want.budget)
				if err != nil {
					t.Fatalf("budget %d: %v", want.budget, err)
				}
				if got != want.reg {
					t.Errorf("budget %d: got %+v, want %+v", want.budget, got, want.reg)
				}
			}
		})
	}
}
