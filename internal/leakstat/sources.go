package leakstat

import (
	"context"
	"fmt"
	"math/rand"

	"desmask/internal/desprog"
	"desmask/internal/kernels"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// maskSeedBase decorrelates the per-trace mask-stream seeds from the
// per-trace input seeds (both are indexed by the trace number i): masks and
// inputs must be independent randomness or the masking is fictitious.
const maskSeedBase = int64(0x6d61736b) // "mask"

// MaskSeed derives the mask-stream seed of trace i for an assessment seed.
// Every source uses this one derivation, so a shard computed anywhere draws
// the identical per-trace masks.
func MaskSeed(seed int64, i int) int64 {
	return sim.DeriveSeed(seed^maskSeedBase, i)
}

// DESKeySource builds the canonical DES fixed-vs-random-KEY population:
// fixed traces encrypt plaintext under fixedKey, random traces under a key
// derived from sim.DeriveSeed(seed, i). Varying the key (not the plaintext)
// keeps the deliberately insecure initial permutation — which handles only
// public plaintext bits — out of the comparison, so the verdict measures
// exactly what the paper masks: key-dependent energy behavior. On masked or
// shuffled machines every trace draws fresh countermeasure randomness from
// MaskSeed(seed, i) — fixed-population traces included, which is what makes
// a sound mask's two populations statistically indistinguishable.
func DESKeySource(m *desprog.Machine, fixedKey, plaintext uint64, seed int64, maxCycles uint64) Source {
	return Source{
		Runner: m.Runner(),
		Job: func(i int, fixed bool) (sim.Job, error) {
			key := fixedKey
			if !fixed {
				key = rand.New(rand.NewSource(sim.DeriveSeed(seed, i))).Uint64()
			}
			return m.EncryptJobSeeded(key, plaintext, MaskSeed(seed, i), maxCycles, false)
		},
	}
}

// DESPlaintextSource builds the fixed-vs-random-PLAINTEXT population under
// one key. Use it with a window that starts after the initial permutation
// (DESRound1WindowContext): the IP region is insecure by design and would
// flag any policy.
func DESPlaintextSource(m *desprog.Machine, key, fixedPlain uint64, seed int64, maxCycles uint64) Source {
	return Source{
		Runner: m.Runner(),
		Job: func(i int, fixed bool) (sim.Job, error) {
			pt := fixedPlain
			if !fixed {
				pt = rand.New(rand.NewSource(sim.DeriveSeed(seed, i))).Uint64()
			}
			return m.EncryptJobSeeded(key, pt, MaskSeed(seed, i), maxCycles, false)
		},
	}
}

// KernelSecretSource builds a fixed-vs-random-SECRET population for a
// non-DES kernel: random traces draw each secret word from
// sim.DeriveSeed(seed, i) masked by wordMask (0xff for aes128's byte-valued
// state, 0xffffffff for tea/sha1 full words).
func KernelSecretSource(m *kernels.Machine, fixedSecret, public []uint32, wordMask uint32, seed int64, maxCycles uint64) Source {
	return Source{
		Runner: m.Runner(),
		Job: func(i int, fixed bool) (sim.Job, error) {
			secret := fixedSecret
			if !fixed {
				rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, i)))
				secret = make([]uint32, len(fixedSecret))
				for j := range secret {
					secret[j] = rng.Uint32() & wordMask
				}
			}
			job, err := m.JobSeeded(secret, public, MaskSeed(seed, i), false)
			if err != nil {
				return sim.Job{}, err
			}
			job.MaxCycles = maxCycles
			return job, nil
		},
	}
}

// Region is an assessment window located on a probe run. Truncated reports
// that the cycle budget ended the window before the region it stands for
// did: the verdict then covers only the region's first End cycles.
type Region struct {
	trace.Window
	Truncated bool
}

// budgetRegion bounds a window located on a probe run to a maxCycles > 0
// budget, so budget-bounded assessment runs still cover it.
func budgetRegion(w trace.Window, maxCycles uint64) Region {
	if maxCycles == 0 {
		return Region{Window: w}
	}
	return Region{Window: w.Clamp(int(maxCycles)), Truncated: w.End > int(maxCycles)}
}

// probeTrace runs job once with its per-cycle trace captured, for locating
// a window. Cycle counts are input-independent per program, so the window
// found on one probe run holds for every run. With a budget (maxCycles > 0)
// the run stops one cycle past it: a region boundary at or before the
// budget is then located exactly, and a region still open at the last
// traced cycle ends past the budget — everything budgetRegion needs, at a
// fraction of a full run's cost. Without a budget the run must halt. A
// context that is already dead skips the run, so a deadline-bound service
// never burns a worker locating a window for an expired request.
func probeTrace(ctx context.Context, r *sim.Runner, job sim.Job, maxCycles uint64) (*trace.Trace, error) {
	job.Trace = true
	job.MaxCycles = 0
	job.RequireHalt = maxCycles == 0
	if maxCycles > 0 {
		job.MaxCycles = maxCycles + 1
	}
	results, err := r.RunBatchContext(ctx, []sim.Job{job}, sim.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	if err := results[0].Err; err != nil {
		return nil, fmt.Errorf("leakstat: window probe: %w", err)
	}
	return results[0].Trace, nil
}

// DESMaskedWindow locates the DES assessment window [0, entry of the output
// permutation): everything the paper requires to be energy-flat across keys.
// The output permutation itself declassifies the ciphertext and is insecure
// by design. A maxCycles > 0 budget clamps the window so budget-bounded
// assessment runs still cover it.
func DESMaskedWindow(m *desprog.Machine, key, plaintext uint64, maxCycles uint64) (trace.Window, error) {
	reg, err := DESMaskedWindowContext(context.Background(), m, key, plaintext, maxCycles)
	return reg.Window, err
}

// DESMaskedWindowContext is DESMaskedWindow under a cancellable context,
// reporting whether the budget cut the masked region short. The probe run
// stops at the budget (probeTrace).
func DESMaskedWindowContext(ctx context.Context, m *desprog.Machine, key, plaintext uint64, maxCycles uint64) (Region, error) {
	entry, err := m.EntryPC(desprog.FuncOutputPermutation)
	if err != nil {
		return Region{}, err
	}
	job, err := m.EncryptJob(key, plaintext, 0, true)
	if err != nil {
		return Region{}, err
	}
	tr, err := probeTrace(ctx, m.Runner(), job, maxCycles)
	if err != nil {
		return Region{}, err
	}
	end := tr.Len()
	for i, pc := range tr.PCs {
		if pc == entry {
			end = i
			break
		}
	}
	reg := budgetRegion(trace.Window{Start: 0, End: end}, maxCycles)
	if reg.Len() <= 0 {
		return Region{}, fmt.Errorf("leakstat: empty DES masked window")
	}
	return reg, nil
}

// DESRound1WindowContext locates round 1 of the DES encryption — the window
// the vary-plaintext population is assessed over, past the insecure initial
// permutation — reporting whether the budget cut round 1 short. The probe
// run stops at the budget (probeTrace).
func DESRound1WindowContext(ctx context.Context, m *desprog.Machine, key, plaintext uint64, maxCycles uint64) (Region, error) {
	job, err := m.EncryptJob(key, plaintext, 0, true)
	if err != nil {
		return Region{}, err
	}
	tr, err := probeTrace(ctx, m.Runner(), job, maxCycles)
	if err != nil {
		return Region{}, err
	}
	w, err := m.RoundWindow(tr, 0)
	if err != nil {
		if maxCycles == 0 || tr.Len() <= int(maxCycles) {
			return Region{}, err
		}
		// The probe stopped before round 1 began: past the budget.
		w = trace.Window{Start: tr.Len(), End: tr.Len()}
	}
	reg := budgetRegion(w, maxCycles)
	if reg.Len() <= 0 {
		return Region{}, fmt.Errorf("leakstat: round-1 window outside the %d-cycle budget", maxCycles)
	}
	return reg, nil
}

// KernelMaskedWindowContext locates a kernel's assessment window [0, start
// of output emission) under a cancellable context and a cycle budget: a
// maxCycles > 0 budget clamps the window, as for DES, and the report says
// whether it cut the masked region short. The probe run stops at the budget
// (probeTrace); without one the probe runs to halt.
func KernelMaskedWindowContext(ctx context.Context, m *kernels.Machine, secret, public []uint32, maxCycles uint64) (Region, error) {
	job, err := m.Job(secret, public, true)
	if err != nil {
		return Region{}, err
	}
	tr, err := probeTrace(ctx, m.Runner(), job, maxCycles)
	if err != nil {
		return Region{}, err
	}
	end, err := m.MaskedRegionEnd(tr)
	if err != nil {
		return Region{}, err
	}
	if end <= 0 {
		return Region{}, fmt.Errorf("leakstat: %s: empty masked region", m.Kernel.Name)
	}
	return budgetRegion(trace.Window{Start: 0, End: end}, maxCycles), nil
}
