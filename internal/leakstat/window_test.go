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
					got, err := DESMaskedWindowContext(ctx, m, testKey, testPlain, b)
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
						got, err := KernelMaskedWindowContext(ctx, m, secret, public, b)
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
	reg, err := DESMaskedWindowContext(ctx, m, testKey, testPlain, 300)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Region{Window: trace.Window{Start: 0, End: 300}, Truncated: true}); reg != want {
		t.Fatalf("budget 300: got %+v, want %+v", reg, want)
	}
	whole, err := DESMaskedWindowContext(ctx, m, testKey, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Truncated {
		t.Fatalf("no budget: %+v reported truncated", whole)
	}
	reg, err = DESMaskedWindowContext(ctx, m, testKey, testPlain, uint64(whole.End))
	if err != nil {
		t.Fatal(err)
	}
	if reg != whole {
		t.Fatalf("budget at the region end: got %+v, want the whole region %+v", reg, whole)
	}
}
