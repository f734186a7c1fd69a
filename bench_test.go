// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§4.3). Each BenchmarkFigure*/BenchmarkTable* target runs the
// corresponding experiment end to end and reports the headline quantity as
// a custom metric, so `go test -bench=.` doubles as the reproduction
// harness. Supporting micro-benchmarks (simulator throughput, compiler,
// reference DES) characterise the substrates.
package desmask

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/energy"
	"desmask/internal/experiments"
	"desmask/internal/kernels"
	"desmask/internal/sim"
)

const (
	benchKey   = experiments.DefaultKey
	benchKey2  = experiments.DefaultKeyBit1
	benchPlain = experiments.DefaultPlain
)

// BenchmarkFigure6_EncryptionTrace regenerates Figure 6: the bucketed energy
// profile revealing the 16 rounds. Reports the SPA round estimate.
func BenchmarkFigure6_EncryptionTrace(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		// Bucket width 100 for the SPA analysis (the paper's width-10
		// bucketing is for plotting; at width 10 the slight round-length
		// variation from the shift schedule blurs the autocorrelation).
		f6, err := experiments.Figure6(benchKey, benchPlain, 100)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(f6.SPA.Rounds)
	}
	b.ReportMetric(rounds, "spa-rounds")
}

// BenchmarkFigure7_KeyDiffFirstRound regenerates Figure 7 (single key bit
// flipped, round 1, original). Reports the peak differential in pJ.
func BenchmarkFigure7_KeyDiffFirstRound(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		peak = r.Stats.MaxAbs
	}
	b.ReportMetric(peak, "peak-pJ")
}

// BenchmarkFigure8_KeyDiffUnmasked regenerates Figure 8.
func BenchmarkFigure8_KeyDiffUnmasked(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchKey, benchKey2, benchPlain)
		if err != nil {
			b.Fatal(err)
		}
		peak = r.Stats.MaxAbs
	}
	b.ReportMetric(peak, "peak-pJ")
}

// BenchmarkFigure9_KeyDiffMasked regenerates Figure 9; the reported peak
// must be zero (fully masked).
func BenchmarkFigure9_KeyDiffMasked(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchKey, benchKey2, benchPlain)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Flat {
			b.Fatalf("masked differential not flat: %+v", r.Stats)
		}
		peak = r.Stats.MaxAbs
	}
	b.ReportMetric(peak, "peak-pJ")
}

// BenchmarkFigure10_PlaintextDiffUnmasked regenerates Figure 10.
func BenchmarkFigure10_PlaintextDiffUnmasked(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchKey, benchPlain, experiments.DefaultPlain2)
		if err != nil {
			b.Fatal(err)
		}
		peak = r.Stats.MaxAbs
	}
	b.ReportMetric(peak, "peak-pJ")
}

// BenchmarkFigure11_PlaintextDiffMasked regenerates Figure 11; differences
// must survive in the insecure initial permutation and vanish in round 1.
func BenchmarkFigure11_PlaintextDiffMasked(b *testing.B) {
	var ipPeak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchKey, benchPlain, experiments.DefaultPlain2)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Round1.Flat {
			b.Fatal("masked round 1 not flat")
		}
		ipPeak = r.IP.Stats.MaxAbs
	}
	b.ReportMetric(ipPeak, "ip-peak-pJ")
}

// BenchmarkFigure12_MaskingOverhead regenerates Figure 12 and reports the
// mean masking overhead in pJ/cycle during the first key permutation
// (paper: ~45).
func BenchmarkFigure12_MaskingOverhead(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12(benchKey, benchPlain)
		if err != nil {
			b.Fatal(err)
		}
		over = r.MeanOverheadPJ
	}
	b.ReportMetric(over, "overhead-pJ/cycle")
}

// BenchmarkTable_TotalEnergy regenerates the §4.3 totals (paper: 46.4 /
// 52.6 / 63.6 / 83.5 µJ) and reports the headline savings percentage
// (paper: 83%).
func BenchmarkTable_TotalEnergy(b *testing.B) {
	var headline float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.TableTotals(benchKey, benchPlain)
		if err != nil {
			b.Fatal(err)
		}
		headline = 100 * tbl.HeadlineSavings()
	}
	b.ReportMetric(headline, "headline-%")
}

// BenchmarkDPA_Unmasked runs the first-round DPA attack against the
// unprotected system (64 traces for benchmark turnaround; the experiments
// binary demonstrates full 8/8 recovery at 256) and reports recovered
// sub-key chunks.
func BenchmarkDPA_Unmasked(b *testing.B) {
	var recovered float64
	for i := 0; i < b.N; i++ {
		att, err := experiments.DPAAttack(benchKey, 64)
		if err != nil {
			b.Fatal(err)
		}
		recovered = float64(att.RecoveredUnmasked)
	}
	b.ReportMetric(recovered, "chunks/8")
}

// BenchmarkDPA_MaskedFails verifies the attack collapses on the masked
// system (reported metric is the residual differential peak: zero).
func BenchmarkDPA_MaskedFails(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		att, err := experiments.DPAAttack(benchKey, 64)
		if err != nil {
			b.Fatal(err)
		}
		peak = att.MaskedPeak
	}
	b.ReportMetric(peak, "masked-peak-pJ")
}

// benchEncrypt measures one full simulated encryption of the DES program
// compiled under policy with energy configuration cfg, reporting µJ and
// simulated cycles.
func benchEncrypt(b *testing.B, policy compiler.Policy, cfg energy.Config) {
	b.Helper()
	m, err := desprog.NewFull(compiler.Options{Policy: policy}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var (
		stats sim.Stats
		done  bool
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, done, err = m.Encrypt(benchKey, benchPlain, 0)
		if err != nil || !done {
			b.Fatalf("encryption failed (done=%v): %v", done, err)
		}
	}
	b.ReportMetric(stats.Energy.Total/1e6, "uJ")
	b.ReportMetric(float64(stats.Cycles), "sim-cycles")
}

// BenchmarkEncrypt_PolicyNone is the paper's unprotected baseline (46.4 µJ).
func BenchmarkEncrypt_PolicyNone(b *testing.B) {
	benchEncrypt(b, compiler.PolicyNone, energy.DefaultConfig())
}

// BenchmarkEncrypt_PolicySelective is the paper's scheme (52.6 µJ).
func BenchmarkEncrypt_PolicySelective(b *testing.B) {
	benchEncrypt(b, compiler.PolicySelective, energy.DefaultConfig())
}

// BenchmarkEncrypt_PolicyNaiveLoadStore is the naive all-loads/stores point
// (63.6 µJ).
func BenchmarkEncrypt_PolicyNaiveLoadStore(b *testing.B) {
	benchEncrypt(b, compiler.PolicyNaiveLoadStore, energy.DefaultConfig())
}

// BenchmarkEncrypt_PolicyAllSecure is the full dual-rail point (83.5 µJ).
func BenchmarkEncrypt_PolicyAllSecure(b *testing.B) {
	benchEncrypt(b, compiler.PolicyAllSecure, energy.DefaultConfig())
}

// BenchmarkAblation_NoClockGating measures the cost of leaving the
// complementary datapath ungated (DESIGN.md §6.5).
func BenchmarkAblation_NoClockGating(b *testing.B) {
	cfg := energy.DefaultConfig()
	cfg.ClockGating = false
	benchEncrypt(b, compiler.PolicySelective, cfg)
}

// BenchmarkAblation_NoPrecharge measures the (leaky) dual-rail-without-
// precharge variant (DESIGN.md §6.3).
func BenchmarkAblation_NoPrecharge(b *testing.B) {
	cfg := energy.DefaultConfig()
	cfg.DualRailPrecharge = false
	benchEncrypt(b, compiler.PolicySelective, cfg)
}

// BenchmarkSimulator measures raw pipeline throughput in simulated cycles
// per second.
func BenchmarkSimulator(b *testing.B) {
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, _, err := m.Encrypt(benchKey, benchPlain, 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles += stats.Cycles
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkCompiler measures compiling the full DES program.
func BenchmarkCompiler(b *testing.B) {
	src := desprog.Source()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(src, compiler.PolicySelective); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceDES measures the oracle implementation.
func BenchmarkReferenceDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		des.Encrypt(benchKey, benchPlain)
	}
}

// BenchmarkTraceCollection measures attacker-side trace acquisition (one
// first-round trace per iteration).
func BenchmarkTraceCollection(b *testing.B) {
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := m.EncryptJob(benchKey, uint64(i)*0x9e3779b97f4a7c15, 25_000, true)
		if err != nil {
			b.Fatal(err)
		}
		if res := m.Runner().Run(job); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// benchCollectWorkers measures dpa.Collect at its default gang width
// (leakstat.DefaultGang lanes) and a fixed worker count, reporting traces
// per second. 32 traces fill two gangs of 16, so at most two workers have
// a gang to run; both worker counts produce bit-identical trace sets.
func benchCollectWorkers(b *testing.B, workers int) {
	b.Helper()
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dpa.Config{NumTraces: 32, Seed: 42, MaxCycles: 25_000, Workers: workers}
	// Warm the session's worker pool and trace-size hint.
	if _, err := dpa.Collect(m, benchKey, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpa.Collect(m, benchKey, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cfg.NumTraces*b.N)/b.Elapsed().Seconds(), "traces/s")
}

// BenchmarkCollectTraces_Sequential acquires the DPA trace batch on one
// worker: both gangs run one after the other.
func BenchmarkCollectTraces_Sequential(b *testing.B) { benchCollectWorkers(b, 1) }

// BenchmarkCollectTraces_Parallel acquires the same batch across GOMAXPROCS
// workers: with two or more CPUs the two gangs run side by side.
func BenchmarkCollectTraces_Parallel(b *testing.B) { benchCollectWorkers(b, 0) }

// BenchmarkFullKeyAttack prices one full 48-bit round-key attack (8
// S-boxes x 64 guesses) per distinguisher on 32 unprotected traces of 25k
// cycles — the keyrec verdict's attack half.
func BenchmarkFullKeyAttack(b *testing.B) {
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := dpa.Collect(m, benchKey, dpa.Config{NumTraces: 32, Seed: 9, MaxCycles: 25_000})
	if err != nil {
		b.Fatal(err)
	}
	ct := des.Encrypt(benchKey, ts.Plaintexts[0])
	for _, stat := range []dpa.Stat{dpa.StatDoM, dpa.StatCPA, dpa.StatCPA2} {
		b.Run(stat.String(), func(b *testing.B) {
			b.ReportAllocs()
			var res dpa.FullKeyResult
			for i := 0; i < b.N; i++ {
				res = dpa.FullKeyAttack(ts, stat, ts.Plaintexts[0], ct)
			}
			res.VerifyAgainst(benchKey)
			b.ReportMetric(float64(res.Recovered), "boxes")
		})
	}
}

// benchKernel measures one full simulated run of an additional workload
// (the paper's generalisation beyond DES) at a policy.
func benchKernel(b *testing.B, k kernels.Kernel, policy compiler.Policy) {
	b.Helper()
	m, err := kernels.BuildSimple(k, policy)
	if err != nil {
		b.Fatal(err)
	}
	secret := make([]uint32, 16)
	public := make([]uint32, 16)
	for i := range secret {
		secret[i] = uint32(i + 1)
		public[i] = uint32(i * 5)
	}
	switch k.Name {
	case "tea":
		secret, public = secret[:4], public[:2]
	case "sha1":
		secret = secret[:5]
	}
	var st sim.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err = m.Run(secret, public)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.Energy.Total/1e6, "uJ")
	b.ReportMetric(float64(st.Cycles), "sim-cycles")
}

// BenchmarkTEA_* extend the §4.3 energy comparison to the TEA workload.
func BenchmarkTEA_PolicyNone(b *testing.B) { benchKernel(b, kernels.TEA(), compiler.PolicyNone) }
func BenchmarkTEA_PolicySelective(b *testing.B) {
	benchKernel(b, kernels.TEA(), compiler.PolicySelective)
}
func BenchmarkTEA_PolicyAllSecure(b *testing.B) {
	benchKernel(b, kernels.TEA(), compiler.PolicyAllSecure)
}

// BenchmarkAES_* extend the comparison to AES-128 (the companion paper's
// direction).
func BenchmarkAES_PolicyNone(b *testing.B) { benchKernel(b, kernels.AES128(), compiler.PolicyNone) }
func BenchmarkAES_PolicySelective(b *testing.B) {
	benchKernel(b, kernels.AES128(), compiler.PolicySelective)
}
func BenchmarkAES_PolicyAllSecure(b *testing.B) {
	benchKernel(b, kernels.AES128(), compiler.PolicyAllSecure)
}

// BenchmarkSHA1_* extend the comparison to the Secure Hash Standard
// compression (the paper's reference [10]) in the HMAC configuration.
func BenchmarkSHA1_PolicyNone(b *testing.B) { benchKernel(b, kernels.SHA1(), compiler.PolicyNone) }
func BenchmarkSHA1_PolicySelective(b *testing.B) {
	benchKernel(b, kernels.SHA1(), compiler.PolicySelective)
}
func BenchmarkSHA1_PolicyAllSecure(b *testing.B) {
	benchKernel(b, kernels.SHA1(), compiler.PolicyAllSecure)
}

// BenchmarkDESDecrypt measures the simulated decryption path.
func BenchmarkDESDecrypt(b *testing.B) {
	m, err := desprog.NewDecrypt(compiler.PolicySelective)
	if err != nil {
		b.Fatal(err)
	}
	ct := des.Encrypt(benchKey, benchPlain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, _, done, err := m.Encrypt(benchKey, ct, 0)
		if err != nil || !done || pt != benchPlain {
			b.Fatalf("decrypt failed: %v", err)
		}
	}
}
