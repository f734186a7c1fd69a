package verdict

import (
	"context"
	"math"
	"testing"

	"desmask/internal/cliconf"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
	"desmask/internal/leakstat"
)

// reference builds the request's workload from the leakstat building blocks
// called directly, as each caller did before the front door existed, and
// returns its report and region.
func reference(t *testing.T, req Request) (*leakstat.Report, leakstat.Region) {
	t.Helper()
	r := req.Params
	opt := r.CompilerOptions()
	ctx := context.Background()
	var (
		src leakstat.Source
		reg leakstat.Region
	)
	if r.Kernel == "des" && req.Custom == nil {
		m, err := desprog.NewFull(opt, energy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.Vary == "plaintext" {
			src = leakstat.DESPlaintextSource(m, r.KeyV, r.PlaintextV, r.Seed, r.MaxCycles)
			reg, err = leakstat.DESRound1WindowContext(ctx, m, r.KeyV, r.PlaintextV, r.MaxCycles)
		} else {
			src = leakstat.DESKeySource(m, r.KeyV, r.PlaintextV, r.Seed, r.MaxCycles)
			reg, err = leakstat.DESMaskedWindowContext(ctx, m, r.KeyV, r.PlaintextV, r.MaxCycles)
		}
		if err != nil {
			t.Fatal(err)
		}
	} else {
		k, _ := kernels.ByName(r.Kernel)
		secret, public, mask := kernels.TVLAInputs(k)
		if c := req.Custom; c != nil {
			k = kernels.Kernel{Name: "custom", Source: c.Source, SecretGlobal: c.SecretGlobal,
				PublicGlobal: c.PublicGlobal, OutputGlobal: c.OutputGlobal, OutputLen: c.OutputLen}
			secret, public, mask = c.Secret, c.Public, 0xffffffff
		}
		m, err := kernels.Build(k, opt, energy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		src = leakstat.KernelSecretSource(m, secret, public, mask, r.Seed, r.MaxCycles)
		reg, err = leakstat.KernelMaskedWindowContext(ctx, m, secret, public, r.MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := r.Config()
	cfg.Window = reg.Window
	rep, err := leakstat.Assess(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, reg
}

// teaSource submits tea's MiniC program as a custom source, with tea's
// canonical inputs.
func teaSource() *Custom {
	k := kernels.TEA()
	secret, public, _ := kernels.TVLAInputs(k)
	return &Custom{Source: k.Source, SecretGlobal: k.SecretGlobal, PublicGlobal: k.PublicGlobal,
		OutputGlobal: k.OutputGlobal, OutputLen: k.OutputLen, Secret: secret, Public: public}
}

// TestBuildMatchesBuildingBlocks holds the front door to the leakstat
// building blocks called directly: the same t-vector bit for bit, the same
// window and truncation flag, and the population variable the report
// names, for DES varying the key and the plaintext, each built-in kernel
// and a submitted source, on both ISAs, with and without a budget that
// cuts the region short. A second Build of the same request through a
// cache hits it and returns the same workload.
func TestBuildMatchesBuildingBlocks(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		kernel, policy, vary string
		isa                  string
		maxCycles            uint64
		custom               bool
		wantName, wantVary   string
		wantTruncated        bool
	}{
		{"des-key-pisa-truncated", "des", "none", "key", "pisa", 6000, false, "des", "key", true},
		{"des-key-rv32-whole", "des", "selective", "key", "rv32", 0, false, "des", "key", false},
		{"des-plaintext-pisa-whole", "des", "none", "plaintext", "pisa", 25_000, false, "des", "plaintext", false},
		{"des-plaintext-rv32-truncated", "des", "boolean-mask", "plaintext", "rv32", 12_000, false, "des", "plaintext", true},
		{"tea-pisa-whole", "tea", "none", "", "pisa", 0, false, "tea", "secret", false},
		{"tea-rv32-truncated", "tea", "seeds-only", "", "rv32", 300, false, "tea", "secret", true},
		{"aes128-pisa-truncated", "aes128", "none", "", "pisa", 25_000, false, "aes128", "secret", true},
		{"sha1-pisa-whole", "sha1", "boolean-mask", "", "pisa", 0, false, "sha1", "secret", false},
		{"custom-pisa-whole", "", "none", "", "pisa", 0, true, "custom", "secret", false},
		{"custom-rv32-truncated", "", "selective", "", "rv32", 300, true, "custom", "secret", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := cliconf.Assess{Kernel: tc.kernel, Policy: tc.policy, Vary: tc.vary, ISA: tc.isa,
				Traces: 16, Seed: 7, MaxCycles: tc.maxCycles}
			req := Request{}
			if tc.custom {
				req.Custom = teaSource()
				a.Kernel, a.Vary = "des", "key" // placeholders, as leakd resolves a source
			}
			r, err := a.Validate()
			if err != nil {
				t.Fatal(err)
			}
			req.Params = r
			ref, refReg := reference(t, req)

			cache := NewCache(4, nil)
			wl, err := Build(context.Background(), req, cache)
			if err != nil {
				t.Fatal(err)
			}
			if wl.Name != tc.wantName || wl.Vary != tc.wantVary || wl.CacheHit {
				t.Errorf("name %q vary %q cache hit %v, want %q %q false",
					wl.Name, wl.Vary, wl.CacheHit, tc.wantName, tc.wantVary)
			}
			if wl.Region != refReg || wl.Region.Truncated != tc.wantTruncated || wl.Config.Window != refReg.Window {
				t.Errorf("region %+v (config window %+v), want %+v truncated %v",
					wl.Region, wl.Config.Window, refReg, tc.wantTruncated)
			}
			if (wl.DES == nil) == (wl.Kernel == nil) {
				t.Errorf("DES %v, Kernel %v: want exactly one machine", wl.DES, wl.Kernel)
			}
			rep, err := leakstat.Assess(wl.Source, wl.Config)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, "front door", rep, ref)

			again, err := Build(context.Background(), req, cache)
			if err != nil {
				t.Fatal(err)
			}
			if !again.CacheHit || again.Compile != 0 {
				t.Errorf("second build: cache hit %v compile %v, want a hit with no compile", again.CacheHit, again.Compile)
			}
			if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
				t.Errorf("cache stats %d hits %d misses, want 1 and 1", hits, misses)
			}
			if again.DES != wl.DES || again.Kernel != wl.Kernel || again.Source.Runner != wl.Source.Runner ||
				again.Name != wl.Name || again.Vary != wl.Vary || again.Region != wl.Region || again.Config != wl.Config {
				t.Errorf("second build differs from the first: %+v vs %+v", again, wl)
			}
			rep2, err := leakstat.Assess(again.Source, again.Config)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, "cache hit", rep2, ref)
		})
	}
}

// requireSameReport fails unless got carries ref's t-vector bit for bit,
// its verdict and its cycle count.
func requireSameReport(t *testing.T, what string, got, ref *leakstat.Report) {
	t.Helper()
	if len(got.T) != len(ref.T) {
		t.Fatalf("%s: %d samples, want %d", what, len(got.T), len(ref.T))
	}
	for i := range ref.T {
		if math.Float64bits(got.T[i]) != math.Float64bits(ref.T[i]) {
			t.Fatalf("%s: t[%d] = %v, want %v", what, i, got.T[i], ref.T[i])
		}
	}
	if got.MaxAbsT != ref.MaxAbsT || got.Leak != ref.Leak || got.CyclesSimulated != ref.CyclesSimulated {
		t.Fatalf("%s: max|t| %v leak %v cycles %d, want %v %v %d", what,
			got.MaxAbsT, got.Leak, got.CyclesSimulated, ref.MaxAbsT, ref.Leak, ref.CyclesSimulated)
	}
}

// TestBuildDeadContext: a context that is already dead stops Build before
// any compile, with the context's error.
func TestBuildDeadContext(t *testing.T) {
	r, err := cliconf.DefaultAssess().Validate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewCache(1, nil)
	if _, err := Build(ctx, Request{Params: r}, cache); err != context.Canceled {
		t.Fatalf("dead context: %v, want context.Canceled", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("dead context left %d cache entries", cache.Len())
	}
}
