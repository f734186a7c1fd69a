// Cosimulation tests for the optimizing backend: for every policy and every
// workload in the repo (DES plus the generality kernels), the -O and non-O
// builds must produce bit-identical architectural results and identical
// leakcheck verdicts. This is the external contract of the taint-sound pass
// pipeline — optimization may drop instructions but may change neither what
// a program computes nor where secrets are allowed to flow unmasked.
//
// The comparison is over the programs' declared outputs (the global data
// arrays), not raw register/frame state: dead-store elimination legitimately
// leaves stale bytes in dead stack slots, and register allocation assigns
// different registers, without either being architecturally observable.
package compiler_test

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
	"desmask/internal/leakcheck"
)

// cosimPolicies returns the policies under test (all of them; a subset in
// -short mode to bound the 2-builds-per-policy cost).
func cosimPolicies() []compiler.Policy {
	if testing.Short() {
		return []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective}
	}
	return compiler.Policies()
}

// checkOutside is the leakcheck verdict of one build: true when an insecure
// instruction touched tainted data outside the declassification region.
func checkOutside(t *testing.T, res *compiler.Result, secretGlobal string, secretLen int, declassSym string) bool {
	t.Helper()
	c, err := leakcheck.New(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := res.Program.Symbols[compiler.GlobalLabel(secretGlobal)]
	if !ok {
		t.Fatalf("no secret global %q", secretGlobal)
	}
	for i := 0; i < secretLen; i++ {
		if err := c.SetWord(addr+uint32(4*i), uint32(i*7+3), true); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Program.Symbols[declassSym], res.Program.Symbols["f_main"]
	if lo == 0 || hi == 0 || hi <= lo {
		t.Fatalf("bad declassification region [%#x, %#x)", lo, hi)
	}
	return len(rep.LeaksOutsideRegion(lo, hi)) != 0
}

// TestCosimDESOptimized cross-checks the optimized DES build against the
// unoptimized one under every policy: same ciphertexts, both equal to the
// reference cipher, same leak verdict.
func TestCosimDESOptimized(t *testing.T) {
	inputs := []struct{ key, plain uint64 }{
		{0x133457799BBCDFF1, 0x0123456789ABCDEF},
		{0x0E329232EA6D0D73, 0x8787878787878787},
	}
	for _, policy := range cosimPolicies() {
		plain, err := desprog.NewFull(compiler.Options{Policy: policy}, energy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := desprog.NewFull(compiler.Options{Policy: policy, Optimize: true}, energy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			cPlain, _, done, err := plain.Encrypt(in.key, in.plain, 0)
			if err != nil || !done {
				t.Fatalf("policy %v: plain encrypt: done=%v err=%v", policy, done, err)
			}
			cOpt, _, done, err := opt.Encrypt(in.key, in.plain, 0)
			if err != nil || !done {
				t.Fatalf("policy %v: optimized encrypt: done=%v err=%v", policy, done, err)
			}
			if cPlain != cOpt {
				t.Errorf("policy %v key %016X: optimized cipher %016X != plain %016X",
					policy, in.key, cOpt, cPlain)
			}
			if want := des.Encrypt(in.key, in.plain); cPlain != want {
				t.Errorf("policy %v key %016X: cipher %016X != reference %016X",
					policy, in.key, cPlain, want)
			}
		}
		vPlain := checkOutside(t, plain.Res, "key", 64, "f_output_permutation")
		vOpt := checkOutside(t, opt.Res, "key", 64, "f_output_permutation")
		if vPlain != vOpt {
			t.Errorf("policy %v: leak verdict changed under -O: plain leaks=%v optimized leaks=%v",
				policy, vPlain, vOpt)
		}
		// The acceptance bar: the paper's sound policies stay leak-free when
		// optimized.
		if (policy == compiler.PolicySelective || policy == compiler.PolicyAllSecure) && vOpt {
			t.Errorf("policy %v: optimized build leaks outside declassification", policy)
		}
	}
}

// TestCosimKernelsOptimized runs the same cross-check over the generality
// kernels (AES-128, TEA, SHA-1).
func TestCosimKernelsOptimized(t *testing.T) {
	cases := []struct {
		kernel kernels.Kernel
		secret []uint32
		public []uint32
	}{
		{kernels.TEA(),
			[]uint32{0x11111111, 0x22222222, 0x33333333, 0x44444444},
			[]uint32{0x01234567, 0x89abcdef}},
		{kernels.AES128(),
			[]uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			[]uint32{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}},
		{kernels.SHA1(),
			[]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0},
			[]uint32{0x61626380, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x18}},
	}
	for _, tc := range cases {
		for _, policy := range cosimPolicies() {
			plain, err := kernels.Build(tc.kernel, compiler.Options{Policy: policy}, energy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			opt, err := kernels.Build(tc.kernel, compiler.Options{Policy: policy, Optimize: true}, energy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			outPlain, _, err := plain.Run(tc.secret, tc.public)
			if err != nil {
				t.Fatalf("%s policy %v: plain run: %v", tc.kernel.Name, policy, err)
			}
			outOpt, _, err := opt.Run(tc.secret, tc.public)
			if err != nil {
				t.Fatalf("%s policy %v: optimized run: %v", tc.kernel.Name, policy, err)
			}
			if len(outPlain) != len(outOpt) {
				t.Fatalf("%s policy %v: output lengths differ", tc.kernel.Name, policy)
			}
			for i := range outPlain {
				if outPlain[i] != outOpt[i] {
					t.Errorf("%s policy %v: out[%d] optimized %#x != plain %#x",
						tc.kernel.Name, policy, i, outOpt[i], outPlain[i])
				}
			}
			vPlain := checkOutside(t, plain.Res, tc.kernel.SecretGlobal, len(tc.secret), "f_emit_output")
			vOpt := checkOutside(t, opt.Res, tc.kernel.SecretGlobal, len(tc.secret), "f_emit_output")
			if vPlain != vOpt {
				t.Errorf("%s policy %v: leak verdict changed under -O: plain leaks=%v optimized leaks=%v",
					tc.kernel.Name, policy, vPlain, vOpt)
			}
		}
	}
}

// TestOptimizedDESSavesTenPercent pins the tentpole's acceptance criterion:
// under the selective policy, -O must cut both the static instruction count
// and the simulated encrypt cycle count of the DES program by at least 10%.
func TestOptimizedDESSavesTenPercent(t *testing.T) {
	plain, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicySelective}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicySelective, Optimize: true}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	staticPlain, staticOpt := len(plain.Res.Program.Text), len(opt.Res.Program.Text)
	if float64(staticOpt) > 0.9*float64(staticPlain) {
		t.Errorf("static instructions: optimized %d vs plain %d (< 10%% reduction)", staticOpt, staticPlain)
	}
	_, sPlain, done, err := plain.Encrypt(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0)
	if err != nil || !done {
		t.Fatalf("plain encrypt: done=%v err=%v", done, err)
	}
	_, sOpt, done, err := opt.Encrypt(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0)
	if err != nil || !done {
		t.Fatalf("optimized encrypt: done=%v err=%v", done, err)
	}
	if float64(sOpt.Cycles) > 0.9*float64(sPlain.Cycles) {
		t.Errorf("encrypt cycles: optimized %d vs plain %d (< 10%% reduction)", sOpt.Cycles, sPlain.Cycles)
	}
	t.Logf("selective DES -O: %d→%d instructions (%.1f%%), %d→%d cycles (%.1f%%)",
		staticPlain, staticOpt, 100*(1-float64(staticOpt)/float64(staticPlain)),
		sPlain.Cycles, sOpt.Cycles, 100*(1-float64(sOpt.Cycles)/float64(sPlain.Cycles)))
}
