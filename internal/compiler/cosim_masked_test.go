// Cosimulation of the software countermeasures (boolean masking, operand
// shuffling) across ISA backends and optimization levels: the protections
// rearrange energy, never architecture. Each protected build must produce
// bit-identical outputs to the unprotected reference on both targets, with
// and without -O, and a masked run's ciphertext must be invariant under the
// mask seed while its energy trace is not (the masks really are live).
package compiler_test

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/sim"
)

// protectionVariants are the countermeasure configurations under test, on
// top of the bare policies already swept by the optimized-cosim tests.
func protectionVariants() []struct {
	name   string
	policy compiler.Policy
	shuf   bool
} {
	return []struct {
		name   string
		policy compiler.Policy
		shuf   bool
	}{
		{"boolean-mask", compiler.PolicyBooleanMask, false},
		{"boolean-mask+shuffle", compiler.PolicyBooleanMask, true},
		{"shuffle-only", compiler.PolicyNone, true},
	}
}

// TestCosimMaskedDESCrossISA pins every protected DES build — boolean
// masking, masking+shuffling, shuffling alone — against the FIPS 46-3
// known-answer vector on both targets, with and without -O, and asserts the
// masked runs stayed inside their fresh-mask pool.
func TestCosimMaskedDESCrossISA(t *testing.T) {
	const (
		key    = uint64(0x133457799BBCDFF1)
		plain  = uint64(0x0123456789ABCDEF)
		cipher = uint64(0x85E813540F0AB405)
	)
	isaNames := []string{"pisa", "rv32"}
	opts := []bool{false, true}
	if testing.Short() {
		isaNames = isaNames[:1]
		opts = opts[:1]
	}
	for _, v := range protectionVariants() {
		for _, isaName := range isaNames {
			target, ok := isa.TargetByName(isaName)
			if !ok {
				t.Fatalf("unknown target %q", isaName)
			}
			for _, optimize := range opts {
				name := v.name + "/" + isaName
				if optimize {
					name += "/O"
				}
				t.Run(name, func(t *testing.T) {
					m, err := desprog.NewFull(compiler.Options{
						Policy: v.policy, Shuffle: v.shuf, Target: target, Optimize: optimize,
					}, energy.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					job, err := m.EncryptJobSeeded(key, plain, 7, 0, false)
					if err != nil {
						t.Fatal(err)
					}
					res := m.Runner().Run(job)
					if res.Err != nil || !res.Done {
						t.Fatalf("encrypt: done=%v err=%v", res.Done, res.Err)
					}
					var got uint64
					for _, w := range res.Mem[0] {
						got = got<<1 | uint64(w&1)
					}
					if got != cipher {
						t.Fatalf("ciphertext %#016x, want %#016x", got, cipher)
					}
					// A masked run's final pool cursor (Reads[1]) must not
					// have run past the fresh-mask pool.
					if mrt := m.Res.Mask; mrt != nil && mrt.PoolWords > 0 {
						pool := m.Res.Program.Symbols[compiler.GlobalLabel(compiler.MaskPoolSym)]
						end := pool + uint32(4*mrt.PoolWords)
						if len(res.Mem) != 2 {
							t.Fatalf("masked run read back %d ranges, want output and pool cursor", len(res.Mem))
						}
						if cur := res.Mem[1][0]; cur < pool || cur > end {
							t.Fatalf("mask pool overflow: cursor %#x outside [%#x,%#x]", cur, pool, end)
						}
					}
				})
			}
		}
	}
}

// TestCosimMaskedKernelsCrossISA runs the generality kernels (TEA, AES-128,
// SHA-1) under boolean masking on both targets ± -O and compares the output
// words against an unprotected reference build of the same kernel.
func TestCosimMaskedKernelsCrossISA(t *testing.T) {
	names := []string{"tea", "aes128", "sha1"}
	isaNames := []string{"pisa", "rv32"}
	if testing.Short() {
		names, isaNames = names[:1], isaNames[:1]
	}
	for _, kname := range names {
		k, _ := kernels.ByName(kname)
		secret, public, _ := kernels.TVLAInputs(k)
		ref, err := kernels.BuildSimple(k, compiler.PolicyNone)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Run(secret, public)
		if err != nil {
			t.Fatalf("%s reference run: %v", kname, err)
		}
		for _, isaName := range isaNames {
			target, _ := isa.TargetByName(isaName)
			for _, optimize := range []bool{false, true} {
				name := kname + "/" + isaName
				if optimize {
					name += "/O"
				}
				t.Run(name, func(t *testing.T) {
					m, err := kernels.Build(k, compiler.Options{
						Policy: compiler.PolicyBooleanMask, Target: target, Optimize: optimize,
					}, energy.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					job, err := m.JobSeeded(secret, public, 11, false)
					if err != nil {
						t.Fatal(err)
					}
					res := m.Runner().Run(job)
					if res.Err != nil || !res.Done {
						t.Fatalf("run: done=%v err=%v", res.Done, res.Err)
					}
					got := res.Mem[0]
					if len(got) != len(want) {
						t.Fatalf("output length %d, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("out[%d] = %#x, want %#x", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestMaskSeedInvariance is the mask-cancellation property stated directly:
// the same (key, plaintext) under different mask seeds yields the same
// ciphertext but different energy traces — the randomness is live in the
// data path, it just cancels architecturally.
func TestMaskSeedInvariance(t *testing.T) {
	const (
		key   = uint64(0x133457799BBCDFF1)
		plain = uint64(0x0123456789ABCDEF)
	)
	for _, v := range protectionVariants() {
		t.Run(v.name, func(t *testing.T) {
			m, err := desprog.NewFull(compiler.Options{Policy: v.policy, Shuffle: v.shuf}, energy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			in := []desprog.Input{{Key: key, Plaintext: plain}}
			tr1, c1, err := m.TraceBatchSeeded(in, 1, sim.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr2, c2, err := m.TraceBatchSeeded(in, 2, sim.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if c1[0] != c2[0] {
				t.Fatalf("ciphertext depends on mask seed: %#016x vs %#016x", c1[0], c2[0])
			}
			same := tr1[0].Len() == tr2[0].Len()
			if same {
				diff := false
				for i, e := range tr1[0].Totals {
					if e != tr2[0].Totals[i] {
						diff = true
						break
					}
				}
				same = !diff
			}
			if same {
				t.Fatal("energy trace is identical across mask seeds — protection randomness is dead")
			}
		})
	}
}
