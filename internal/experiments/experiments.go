// Package experiments regenerates every quantitative result of the paper:
// Figure 6 (energy profile of the 16 rounds), Figures 7-11 (differential
// traces for key and plaintext changes, before and after masking), Figure 12
// (masking overhead during the first key permutation), the §4.3 energy
// totals (46.4 / 52.6 / 63.6 / 83.5 µJ and the 83% headline), the Figure 4
// code-generation example, the DPA attack the scheme defends against, and
// the ablations of DESIGN.md §6.
//
// Absolute joules depend on the calibration in package energy; the claims
// reproduced here are the paper's *shapes*: orderings, ratios, flat-vs-
// leaking differentials, and attack success flipping to failure.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/energy"
	"desmask/internal/harness"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/leakcheck"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
	"desmask/internal/trace"
	"desmask/internal/verdict"
)

// Default workload: the classic DES walkthrough vector, with the paper's
// Figure 7 variation (two keys differing in key bit 1, i.e. the MSB — a
// non-parity bit selected by PC-1).
const (
	DefaultKey     uint64 = 0x133457799BBCDFF1
	DefaultKeyBit1        = DefaultKey ^ (1 << 63)
	DefaultPlain   uint64 = 0x0123456789ABCDEF
	DefaultPlain2  uint64 = 0xFEDCBA9876543210
)

// Figure6Result is the bucketed energy profile of one unmasked encryption.
type Figure6Result struct {
	BucketWidth int
	Series      []float64 // mean pJ/cycle per bucket
	RoundStarts []int     // ground-truth round boundaries (cycles)
	SPA         dpa.SPAResult
	TotalUJ     float64
	Cycles      uint64
}

// Figure6 reproduces the paper's Figure 6: the energy trace of a full
// encryption, aggregated every `bucket` cycles (the paper uses 10; larger
// buckets give the same 16-round picture with fewer points), plus the SPA
// evidence that the round structure is visible.
func Figure6(key, plaintext uint64, bucket int) (*Figure6Result, error) {
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		return nil, err
	}
	tr, _, stats, err := m.TraceRun(key, plaintext)
	if err != nil {
		return nil, err
	}
	starts, err := m.RoundStarts(tr)
	if err != nil {
		return nil, err
	}
	// SPA period search spans 2k-40k cycles regardless of bucket width, so
	// the ~12k-cycle round period is always inside the window.
	minP, maxP := 2000/bucket, 40000/bucket
	if minP < 1 {
		minP = 1
	}
	return &Figure6Result{
		BucketWidth: bucket,
		Series:      trace.Bucket(tr.Totals, bucket),
		RoundStarts: starts,
		SPA:         dpa.SPA(tr.Totals, bucket, minP, maxP),
		TotalUJ:     stats.Energy.Total / 1e6,
		Cycles:      stats.Cycles,
	}, nil
}

// DifferentialResult is one of the Figure 7-11 differential profiles.
type DifferentialResult struct {
	Policy compiler.Policy
	// Window is the analysed cycle range (the paper plots round 1 for
	// Figures 7-9 and the start of the run for Figures 10-11).
	Window trace.Window
	// Diff is the per-cycle energy difference within Window.
	Diff  []float64
	Stats trace.Stats
	// Flat reports a perfectly masked window.
	Flat bool
}

// diffRuns runs jobs a and b, both capturing their traces, as one batch
// through r, locates a window on a's trace with sel, and summarises the
// per-cycle differential a − b inside it: the one two-run comparison behind
// Figures 7-11, the ablations and the kernel flatness rows. It returns a's
// trace too. Policy and Flat are left to the caller, each keeping its own
// flatness rule.
func diffRuns(r *sim.Runner, a, b sim.Job, sel func(*trace.Trace) (trace.Window, error)) (*DifferentialResult, *trace.Trace, error) {
	res, err := r.RunBatch([]sim.Job{a, b}, sim.Options{})
	if err != nil {
		return nil, nil, err
	}
	if !res[0].Done || !res[1].Done {
		return nil, nil, fmt.Errorf("experiments: run exceeded %d cycles", uint64(sim.DefaultMaxCycles))
	}
	t1 := res[0].Trace
	d, err := trace.Diff(t1.Totals, res[1].Trace.Totals)
	if err != nil {
		return nil, nil, err
	}
	w, err := sel(t1)
	if err != nil {
		return nil, nil, err
	}
	seg := d[w.Start:w.End]
	return &DifferentialResult{Window: w, Diff: seg, Stats: trace.Summarize(seg)}, t1, nil
}

// DESDifferential runs the encryptions of (k1, p1) and (k2, p2) on m as one
// batch, trace i under the mask seed sim.DeriveSeed(0, i), and
// summarises their differential over the window sel locates on the first
// run's trace. The window is flat when no cycle in it differs beyond
// numerical noise.
func DESDifferential(m *desprog.Machine, k1, p1, k2, p2 uint64, sel func(*trace.Trace) (trace.Window, error)) (*DifferentialResult, *trace.Trace, error) {
	a, err := m.EncryptJobSeeded(k1, p1, sim.DeriveSeed(0, 0), 0, true)
	if err != nil {
		return nil, nil, err
	}
	b, err := m.EncryptJobSeeded(k2, p2, sim.DeriveSeed(0, 1), 0, true)
	if err != nil {
		return nil, nil, err
	}
	d, t1, err := diffRuns(m.Runner(), a, b, sel)
	if err != nil {
		return nil, nil, err
	}
	d.Flat = d.Stats.MaxAbs < 1e-9
	return d, t1, nil
}

// MaskedRegion selects the masked region of m: from the first cycle up to
// the declassifying function's entry.
func MaskedRegion(m *harness.Machine) func(*trace.Trace) (trace.Window, error) {
	return func(tr *trace.Trace) (trace.Window, error) {
		end, err := m.MaskedRegionEnd(tr)
		return trace.Window{End: end}, err
	}
}

// differential runs two (key, plaintext) pairs under one policy and
// extracts the differential over a window selected by sel.
func differential(policy compiler.Policy, k1, p1, k2, p2 uint64,
	sel func(m *desprog.Machine, tr *trace.Trace) (trace.Window, error)) (*DifferentialResult, error) {
	m, err := desprog.New(policy)
	if err != nil {
		return nil, err
	}
	d, _, err := DESDifferential(m, k1, p1, k2, p2, func(tr *trace.Trace) (trace.Window, error) { return sel(m, tr) })
	if err != nil {
		return nil, err
	}
	d.Policy = policy
	return d, nil
}

func round1Window(m *desprog.Machine, tr *trace.Trace) (trace.Window, error) {
	return m.RoundWindow(tr, 0)
}

// ipThroughRound1 covers the initial permutation through the end of round 1
// (the region the paper plots in Figures 10-11).
func ipThroughRound1(m *desprog.Machine, tr *trace.Trace) (trace.Window, error) {
	w, err := m.RoundWindow(tr, 0)
	if err != nil {
		return trace.Window{}, err
	}
	return trace.Window{Start: 0, End: w.End}, nil
}

// Figure7 reproduces the paper's Figure 7: the first-round differential
// between two keys differing only in key bit 1, on the unmasked system.
func Figure7() (*DifferentialResult, error) {
	return differential(compiler.PolicyNone, DefaultKey, DefaultPlain, DefaultKeyBit1, DefaultPlain, round1Window)
}

// Figure8 reproduces Figure 8: first-round differential for two different
// keys before masking.
func Figure8(k1, k2, plaintext uint64) (*DifferentialResult, error) {
	return differential(compiler.PolicyNone, k1, plaintext, k2, plaintext, round1Window)
}

// Figure9 reproduces Figure 9: the same two keys after selective masking —
// the differential vanishes.
func Figure9(k1, k2, plaintext uint64) (*DifferentialResult, error) {
	return differential(compiler.PolicySelective, k1, plaintext, k2, plaintext, round1Window)
}

// Figure10 reproduces Figure 10: differential between two plaintexts under
// the same key, before masking, over the initial permutation and round 1.
func Figure10(key, p1, p2 uint64) (*DifferentialResult, error) {
	return differential(compiler.PolicyNone, key, p1, key, p2, ipThroughRound1)
}

// Figure11Result splits the masked plaintext differential into the
// (insecure, and therefore still differing) initial-permutation region and
// the (masked, flat) round region — the paper's observation that "the
// differences in the input values result in the difference in both the
// energy masked and original versions" only during the plaintext
// permutation.
type Figure11Result struct {
	IP     DifferentialResult
	Round1 DifferentialResult
}

// Figure11 reproduces Figure 11.
func Figure11(key, p1, p2 uint64) (*Figure11Result, error) {
	ip, err := differential(compiler.PolicySelective, key, p1, key, p2,
		func(m *desprog.Machine, tr *trace.Trace) (trace.Window, error) {
			return m.PhaseWindow(tr, desprog.FuncInitialPermutation, desprog.FuncKeyPermutation)
		})
	if err != nil {
		return nil, err
	}
	r1, err := differential(compiler.PolicySelective, key, p1, key, p2, round1Window)
	if err != nil {
		return nil, err
	}
	return &Figure11Result{IP: *ip, Round1: *r1}, nil
}

// Figure12Result is the masking-overhead profile during the first key
// permutation.
type Figure12Result struct {
	Window trace.Window
	// Overhead is the per-cycle additional energy of the selectively
	// masked run over the unmasked run, within the key permutation.
	Overhead []float64
	// MeanOverheadPJ is the average additional pJ/cycle (the paper reports
	// ~45 pJ over a ~165 pJ baseline; our compiler secures a smaller share
	// of the key-permutation instructions, so the measured overhead is
	// lower but of the same order).
	MeanOverheadPJ float64
	BaselinePJ     float64
}

// Figure12 reproduces Figure 12: the additional energy consumed by masking
// during the first key permutation.
func Figure12(key, plaintext uint64) (*Figure12Result, error) {
	// The two policies run in parallel: each machine owns its own session, so
	// the pair of traced runs fans out with sim.ForEach.
	machines := make([]*desprog.Machine, 2)
	traces := make([]*trace.Trace, 2)
	for i, pol := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective} {
		m, err := desprog.New(pol)
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	err := sim.ForEach(2, 0, func(i int) error {
		tr, _, err := machines[i].Trace(key, plaintext)
		traces[i] = tr
		return err
	})
	if err != nil {
		return nil, err
	}
	tN, tS := traces[0], traces[1]
	// The two policies compile to the same instruction sequence (secure
	// bits only), so cycles align and the windows agree.
	w, err := machines[1].PhaseWindow(tS, desprog.FuncKeyPermutation, desprog.FuncKeyGeneration)
	if err != nil {
		return nil, err
	}
	d, err := trace.Diff(tS.Totals, tN.Totals)
	if err != nil {
		return nil, err
	}
	seg := d[w.Start:w.End]
	base := trace.Summarize(tN.Totals[w.Start:w.End])
	return &Figure12Result{
		Window:         w,
		Overhead:       seg,
		MeanOverheadPJ: trace.Summarize(seg).Mean,
		BaselinePJ:     base.Mean,
	}, nil
}

// PolicyEnergy is one row of the policy comparison (the paper's §4.3
// totals: 46.4 / 52.6 / 63.6 / 83.5 µJ).
type PolicyEnergy struct {
	Policy     compiler.Policy
	TotalUJ    float64
	AvgPJCycle float64
	Cycles     uint64
	SecureInst uint64
	Insts      uint64
}

// EnergyReport compares the protection policies on one workload.
type EnergyReport struct {
	Rows []PolicyEnergy
}

// Row returns the row for a policy.
func (r *EnergyReport) Row(p compiler.Policy) (PolicyEnergy, bool) {
	for _, row := range r.Rows {
		if row.Policy == p {
			return row, true
		}
	}
	return PolicyEnergy{}, false
}

// Overhead returns a policy's additional energy over the unprotected run,
// in µJ.
func (r *EnergyReport) Overhead(p compiler.Policy) float64 {
	base, ok1 := r.Row(compiler.PolicyNone)
	row, ok2 := r.Row(p)
	if !ok1 || !ok2 {
		return 0
	}
	return row.TotalUJ - base.TotalUJ
}

// HeadlineSavings returns the paper's abstract claim: the fraction of the
// full-dual-rail additional energy that selective masking avoids
// (1 − overhead(selective)/overhead(all-secure) ≈ 0.83).
func (r *EnergyReport) HeadlineSavings() float64 {
	all := r.Overhead(compiler.PolicyAllSecure)
	if all == 0 {
		return 0
	}
	return 1 - r.Overhead(compiler.PolicySelective)/all
}

// ComparePolicies encrypts the same block under each policy and tabulates
// energy. Policies compile and run in parallel; rows come back in policy
// order.
func ComparePolicies(key, plaintext uint64, policies []compiler.Policy) (*EnergyReport, error) {
	rows := make([]PolicyEnergy, len(policies))
	err := sim.ForEach(len(policies), 0, func(i int) error {
		m, err := desprog.New(policies[i])
		if err != nil {
			return err
		}
		_, stats, done, err := m.Encrypt(key, plaintext, 0)
		if err != nil {
			return err
		}
		if !done {
			return fmt.Errorf("experiments: policy %v: encryption did not finish", policies[i])
		}
		rows[i] = PolicyEnergy{
			Policy:     policies[i],
			TotalUJ:    stats.Energy.Total / 1e6,
			AvgPJCycle: stats.AvgPJPerCycle(),
			Cycles:     stats.Cycles,
			SecureInst: stats.SecureInst,
			Insts:      stats.Insts,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &EnergyReport{Rows: rows}, nil
}

// TableResult is the §4.3 energy-total comparison.
type TableResult struct {
	Report *EnergyReport
	// PaperUJ are the paper's published totals for reference.
	PaperUJ map[compiler.Policy]float64
}

// HeadlineSavings is the abstract's 83% claim.
func (t *TableResult) HeadlineSavings() float64 { return t.Report.HeadlineSavings() }

// TableTotals reproduces the §4.3 totals across the paper's four design
// points.
func TableTotals(key, plaintext uint64) (*TableResult, error) {
	rep, err := ComparePolicies(key, plaintext, []compiler.Policy{
		compiler.PolicyNone, compiler.PolicySelective,
		compiler.PolicyNaiveLoadStore, compiler.PolicyAllSecure,
	})
	if err != nil {
		return nil, err
	}
	return &TableResult{
		Report: rep,
		PaperUJ: map[compiler.Policy]float64{
			compiler.PolicyNone:           46.4,
			compiler.PolicySelective:      52.6,
			compiler.PolicyNaiveLoadStore: 63.6,
			compiler.PolicyAllSecure:      83.5,
		},
	}, nil
}

// OptRow is one row of the optimization ablation: the DES program under one
// policy, compiled with and without the taint-sound optimizer (-O).
type OptRow struct {
	Policy compiler.Policy
	// Static instruction counts of the emitted programs.
	Instrs, InstrsOpt int
	// Simulated cycles and energy of one full encryption.
	Cycles, CyclesOpt     uint64
	EnergyUJ, EnergyUJOpt float64
}

// OptimizationTable measures what the IR pass pipeline buys per policy:
// instructions, cycles and energy with and without -O, with both builds
// verified to produce the reference ciphertext. Masking guarantees are
// unchanged by -O (the passes are taint-sound); the leakcheck cosim tests
// assert that separately.
func OptimizationTable(key, plaintext uint64) ([]OptRow, error) {
	want := des.Encrypt(key, plaintext)
	run := func(p compiler.Policy, optimize bool) (int, uint64, float64, error) {
		m, err := desprog.NewFull(compiler.Options{Policy: p, Optimize: optimize}, energy.DefaultConfig())
		if err != nil {
			return 0, 0, 0, err
		}
		cipher, stats, done, err := m.Encrypt(key, plaintext, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		if !done {
			return 0, 0, 0, fmt.Errorf("experiments: policy %v (optimize=%v): encryption did not finish", p, optimize)
		}
		if cipher != want {
			return 0, 0, 0, fmt.Errorf("experiments: policy %v (optimize=%v): cipher %016X, reference %016X",
				p, optimize, cipher, want)
		}
		return len(m.Res.Program.Text), stats.Cycles, stats.Energy.Total / 1e6, nil
	}
	var rows []OptRow
	for _, p := range compiler.Policies() {
		instrs, cycles, uj, err := run(p, false)
		if err != nil {
			return nil, err
		}
		instrsOpt, cyclesOpt, ujOpt, err := run(p, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OptRow{
			Policy: p,
			Instrs: instrs, InstrsOpt: instrsOpt,
			Cycles: cycles, CyclesOpt: cyclesOpt,
			EnergyUJ: uj, EnergyUJOpt: ujOpt,
		})
	}
	return rows, nil
}

// Figure4Result is the code-generation example: the left-side copy loop
// with selectively secured accesses.
type Figure4Result struct {
	Asm    string
	Report compiler.Report
	// SecureLoads / TotalLoads inside the whole program; the paper's point
	// is that only 1 of the 4 loads in the loop body is secured.
	SecureLoads, TotalLoads int
}

// Figure4CodeGen compiles the paper's left-side operation under the
// selective policy.
func Figure4CodeGen() (*Figure4Result, error) {
	src := `
		secure int key[64];
		int oldR[32];
		int newL[32];
		void main() {
			int i;
			for (i = 0; i < 32; i = i + 1) { oldR[i] = key[i]; }
			for (i = 0; i < 32; i = i + 1) { newL[i] = oldR[i]; }
		}
	`
	res, err := compiler.Compile(src, compiler.PolicySelective)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{
		Asm:         res.Asm,
		Report:      res.Report,
		SecureLoads: res.Report.SecureLoads,
		TotalLoads:  res.Report.TotalLoads,
	}, nil
}

// DPAResult is the attack comparison on masked vs unmasked systems.
type DPAResult struct {
	NumTraces         int
	Unmasked          [8]dpa.BoxResult
	Masked            [8]dpa.BoxResult
	RecoveredUnmasked int
	RecoveredMasked   int
	// MaskedPeak is the largest differential any masked guess produced
	// (zero when masking is complete).
	MaskedPeak float64
	// CPA results: the correlation distinguisher on the same trace sets.
	CPARecoveredUnmasked int
	CPARecoveredMasked   int
	CPAMaskedPeak        float64
	// FullKeyRecovered reports whether the unmasked attack, completed with
	// one known plaintext/ciphertext pair, reproduced the entire 56-bit
	// key.
	FullKeyRecovered bool
	RecoveredKey     uint64
}

// DPAAttack runs the first-round difference-of-means attack on both
// systems. numTraces <= 0 selects 256, which fully recovers all eight
// sub-key chunks on the unmasked system.
func DPAAttack(key uint64, numTraces int) (*DPAResult, error) {
	if numTraces <= 0 {
		numTraces = 256
	}
	cfg := dpa.Config{NumTraces: numTraces, Seed: 42, MaxCycles: 25_000}
	mNone, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		return nil, err
	}
	mSel, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		return nil, err
	}
	// Analyse the round region from round 1 onward. The start is read off a
	// probe trace (round boundaries are data-independent) so the window
	// tracks wherever the compiler's code layout puts round 1.
	probe, _, err := mNone.Trace(key, DefaultPlain)
	if err != nil {
		return nil, err
	}
	r0, err := mNone.RoundWindow(probe, 0)
	if err != nil {
		return nil, err
	}
	win := r0
	if win.End > 25_000 {
		win.End = 25_000
	}
	// Each Collect already fans out across its machine's session; the two
	// machines are independent, so the masked and unmasked acquisitions
	// overlap too.
	machines := []*desprog.Machine{mNone, mSel}
	sets := make([]*dpa.TraceSet, 2)
	if err := sim.ForEach(2, 2, func(i int) error {
		ts, err := dpa.Collect(machines[i], key, cfg)
		if err != nil {
			return err
		}
		ts.Window = win
		sets[i] = ts
		return nil
	}); err != nil {
		return nil, err
	}
	tsN, tsS := sets[0], sets[1]
	out := &DPAResult{NumTraces: numTraces}
	out.Unmasked = dpa.AttackAll(tsN, 0)
	out.Masked = dpa.AttackAll(tsS, 0)
	out.RecoveredUnmasked, _ = dpa.Verify(out.Unmasked, key)
	out.RecoveredMasked, _ = dpa.Verify(out.Masked, key)
	for _, r := range out.Masked {
		if r.Best.Peak > out.MaskedPeak {
			out.MaskedPeak = r.Best.Peak
		}
	}
	cpaN := dpa.CPAAttackAll(tsN)
	cpaS := dpa.CPAAttackAll(tsS)
	out.CPARecoveredUnmasked, _ = dpa.Verify(cpaN, key)
	out.CPARecoveredMasked, _ = dpa.Verify(cpaS, key)
	for _, r := range cpaS {
		if r.Best.Peak > out.CPAMaskedPeak {
			out.CPAMaskedPeak = r.Best.Peak
		}
	}
	// Complete the unmasked break with one known pair.
	pt := tsN.Plaintexts[0]
	ct := des.Encrypt(key, pt)
	var chunks [8]uint32
	for box, r := range out.Unmasked {
		chunks[box] = r.Best.Guess
	}
	if full, ok := des.RecoverKey(chunks, pt, ct); ok {
		out.FullKeyRecovered = true
		out.RecoveredKey = full
	}
	return out, nil
}

// WorkloadRow is one entry of the generality comparison (DES / AES / TEA).
type WorkloadRow struct {
	Name       string
	Cycles     uint64
	UJ         map[compiler.Policy]float64
	MaskedFlat bool
}

// Workloads runs the DES, AES-128 and TEA workloads under the comparison
// policies, substantiating the paper's "general, extensible to other
// algorithms" claim.
func Workloads() ([]WorkloadRow, error) {
	pols := []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure}
	var rows []WorkloadRow

	desRow := WorkloadRow{Name: "des", UJ: map[compiler.Policy]float64{}}
	for _, pol := range pols {
		m, err := desprog.New(pol)
		if err != nil {
			return nil, err
		}
		_, stats, _, err := m.Encrypt(DefaultKey, DefaultPlain, 0)
		if err != nil {
			return nil, err
		}
		desRow.Cycles = stats.Cycles
		desRow.UJ[pol] = stats.Energy.Total / 1e6
	}
	f9, err := Figure9(DefaultKey, DefaultKeyBit1, DefaultPlain)
	if err != nil {
		return nil, err
	}
	desRow.MaskedFlat = f9.Flat
	rows = append(rows, desRow)

	// The kernel rows are independent of each other and of the DES row;
	// each runs its policies in sequence but the rows fan out in parallel.
	ks := []kernels.Kernel{kernels.AES128(), kernels.TEA(), kernels.SHA1()}
	kernelRows := make([]WorkloadRow, len(ks))
	err = sim.ForEach(len(ks), 0, func(ki int) error {
		k := ks[ki]
		row := WorkloadRow{Name: k.Name, UJ: map[compiler.Policy]float64{}}
		s1, pub, _ := kernels.TVLAInputs(k)
		s2 := make([]uint32, len(s1))
		for i := range s2 {
			s2[i] = uint32(201 - i)
		}
		for _, pol := range pols {
			m, err := kernels.BuildSimple(k, pol)
			if err != nil {
				return err
			}
			_, stats, err := m.Run(s1, pub)
			if err != nil {
				return err
			}
			row.Cycles = stats.Cycles
			row.UJ[pol] = stats.Energy.Total / 1e6
		}
		// Flatness check on the selective build: the masked region must
		// not differ at all between the two secrets.
		m, err := kernels.BuildSimple(k, compiler.PolicySelective)
		if err != nil {
			return err
		}
		a, err := m.Job(s1, pub, true)
		if err != nil {
			return err
		}
		b, err := m.Job(s2, pub, true)
		if err != nil {
			return err
		}
		d, _, err := diffRuns(m.Runner(), a, b, MaskedRegion(&m.Machine))
		if err != nil {
			return err
		}
		row.MaskedFlat = d.Stats.MaxAbs == 0
		kernelRows[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, kernelRows...)
	return rows, nil
}

// TVLARow is one cell of the protection-vs-attack matrix: a (workload,
// countermeasure) build pitted against one attack statistic. "tvla" cells
// come from the streaming fixed-vs-random Welch engine — the modern
// leakage-assessment complement to the exact two-trace differentials of
// Figures 8-11 — at first or second statistical order; "cpa" cells are
// full 48-bit round-key recovery outcomes from internal/dpa.
type TVLARow struct {
	Workload string
	Policy   compiler.Policy
	// Shuffle reports the operand-shuffling countermeasure was layered on
	// top of the policy.
	Shuffle bool
	// Stat is the attack statistic: "tvla" rows carry an assessment verdict
	// (MaxAbsT, Leak), "cpa" rows a key-recovery outcome (Recovered, KeyOK).
	Stat string
	// Order is the statistical order of the attack: 1 = means, 2 = centered
	// second moments (the statistic that breaks first-order masking).
	Order  int
	Traces int
	// MaxAbsT is the peak |t| over the masked region; Leak reports whether
	// it crossed the TVLA threshold (leakstat.DefaultThreshold, 4.5).
	MaxAbsT float64
	Leak    bool
	// Recovered counts correct 6-bit sub-key chunks out of 8 (-1 on tvla
	// rows); KeyOK reports the completed 56-bit key reproduced the known
	// ciphertext.
	Recovered int
	KeyOK     bool
}

// tvla builds one TVLA cell through the verdict front door and runs it:
// the canonical fixed-vs-random population of kernel at seed 7 (DES varies
// the key under DefaultPlain), with the protection and target of opt, the
// statistic at order, and the window clamped to maxCycles (0 = the whole
// masked region).
func tvla(kernel string, opt compiler.Options, order, traces, workers int, maxCycles uint64) (*verdict.Workload, *leakstat.Report, error) {
	a := cliconf.Assess{
		Kernel:     kernel,
		Policy:     opt.Policy.String(),
		Protection: &cliconf.Protection{Shuffle: opt.Shuffle},
		Attack:     &cliconf.Attack{Order: order},
		Traces:     traces,
		Seed:       7,
		Workers:    workers,
		MaxCycles:  maxCycles,
		Key:        fmt.Sprintf("%016X", DefaultKey),
		Plaintext:  fmt.Sprintf("%016X", DefaultPlain),
	}
	if opt.Target != nil {
		a.ISA = opt.Target.Name()
	}
	r, err := a.Validate()
	if err != nil {
		return nil, nil, err
	}
	wl, err := verdict.Build(context.Background(), verdict.Request{Params: r}, nil)
	if err != nil {
		return nil, nil, err
	}
	rep, err := leakstat.Assess(wl.Source, wl.Config)
	return wl, rep, err
}

// tvlaBudget is the cycle budget of a workload's TVLA cells: DES stops at
// 25,000 cycles, the kernels run whole.
func tvlaBudget(kernel string) uint64 {
	if kernel == "des" {
		return 25_000
	}
	return 0
}

// TVLATable assesses DES and the kernels under the comparison policies with
// the streaming fixed-vs-random engine: the secret varies between
// populations, the window is the masked region, so an unprotected build
// shows |t| far above threshold while a sound policy stays below (exactly
// zero here — simulated traces are noise-free).
func TVLATable(traces, workers int) ([]TVLARow, error) {
	pols := []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure}
	var rows []TVLARow

	for _, k := range []string{"des", "aes128", "tea", "sha1"} {
		for _, pol := range pols {
			_, rep, err := tvla(k, compiler.Options{Policy: pol}, 1, traces, workers, tvlaBudget(k))
			if err != nil {
				return nil, err
			}
			rows = append(rows, TVLARow{Workload: k, Policy: pol, Stat: "tvla", Order: 1,
				Traces: traces, MaxAbsT: rep.MaxAbsT, Leak: rep.Leak, Recovered: -1})
		}
	}

	att, err := MaskAttackTable(traces, traces, workers)
	if err != nil {
		return nil, err
	}
	return append(rows, att...), nil
}

// maskCycleBudget bounds the boolean-mask TVLA cells: the second-order leak
// (the 5-stage pipeline overlapping the two shares' EX and WB energy in one
// cycle) sits near cycle 9.8k of the DES run, so a [0, 12k) budget covers it
// at roughly half the full-window simulation cost.
const maskCycleBudget = 12_000

// MaskAttackTable pits the compiler countermeasures against the attacks they
// were built to stop — and against the stronger attacks that still succeed:
//
//   - boolean-mask (with and without shuffling) vs TVLA at order 1 and 2,
//     from ONE simulation pass per build: the order-2 accumulators carry the
//     means, so WelchT over the same fold yields the first-order verdict for
//     free. At assessment scale (thousands of traces) the masked build
//     passes first order but fails second order: no single cycle's *mean*
//     energy depends on the key, but the cycle-energy *variance* does where
//     the pipeline co-schedules the two shares.
//   - full-key CPA vs the unprotected and shuffled builds: at equal trace
//     budgets the unprotected build gives up all 8 sub-key chunks and the
//     completed 56-bit key, while shuffling leaves chunks wrong and the
//     completion failing — degradation, not defeat (more traces still win).
//
// TVLATable embeds these cells at its own trace count; the pinned verdicts
// above are asserted at their real operating points by TestMaskAttackPayoff
// and the CI smoke job.
func MaskAttackTable(tvlaTraces, cpaTraces, workers int) ([]TVLARow, error) {
	var rows []TVLARow
	for _, shuffle := range []bool{false, true} {
		_, rep, err := tvla("des", compiler.Options{Policy: compiler.PolicyBooleanMask, Shuffle: shuffle},
			2, tvlaTraces, workers, maskCycleBudget)
		if err != nil {
			return nil, err
		}
		t1, err := leakstat.WelchT(rep.Fixed, rep.Random)
		if err != nil {
			return nil, err
		}
		peak1, _ := leakstat.MaxAbs(t1)
		rows = append(rows,
			TVLARow{Workload: "des", Policy: compiler.PolicyBooleanMask, Shuffle: shuffle,
				Stat: "tvla", Order: 1, Traces: tvlaTraces,
				MaxAbsT: peak1, Leak: peak1 > leakstat.DefaultThreshold, Recovered: -1},
			TVLARow{Workload: "des", Policy: compiler.PolicyBooleanMask, Shuffle: shuffle,
				Stat: "tvla", Order: 2, Traces: tvlaTraces,
				MaxAbsT: rep.MaxAbsT, Leak: rep.Leak, Recovered: -1})
	}

	ciphertext := des.Encrypt(DefaultKey, DefaultPlain)
	for _, shuffle := range []bool{false, true} {
		m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyNone, Shuffle: shuffle}, energy.DefaultConfig())
		if err != nil {
			return nil, err
		}
		ts, err := dpa.Collect(m, DefaultKey, dpa.Config{
			NumTraces: cpaTraces, Seed: 1, MaxCycles: 25_000, Workers: workers})
		if err != nil {
			return nil, err
		}
		res := dpa.FullKeyAttack(ts, dpa.StatCPA, DefaultPlain, ciphertext)
		res.VerifyAgainst(DefaultKey)
		rows = append(rows, TVLARow{Workload: "des", Policy: compiler.PolicyNone, Shuffle: shuffle,
			Stat: "cpa", Order: 1, Traces: cpaTraces,
			Recovered: res.Recovered, KeyOK: res.OK})
	}
	return rows, nil
}

// CrossISARow is one (workload, policy) pair built for every registered ISA
// backend from the same MiniC source under the same protection policy. The
// table is the experiments-level witness that the masking pipeline is
// ISA-independent: architectural outputs must agree across targets, and the
// TVLA verdict (leak / no leak over the masked window) must agree too.
// Absolute |t| values may differ — per-op energies are target-specific — so
// only the verdicts are compared.
type CrossISARow struct {
	Workload string
	Policy   compiler.Policy
	Traces   int
	// ISAs, MaxAbsT and Leak are parallel, one entry per target.
	ISAs    []string
	MaxAbsT []float64
	Leak    []bool
	// OutputsMatch reports that every target produced identical
	// architectural output words; VerdictsMatch that every target reached
	// the same TVLA verdict.
	OutputsMatch  bool
	VerdictsMatch bool
}

// crossISA assesses one workload under one policy on one target and runs
// it once on its canonical inputs for its architectural output.
func crossISA(kernel string, pol compiler.Policy, target isa.Target, traces, workers int) (out []uint32, maxT float64, leak bool, err error) {
	wl, rep, err := tvla(kernel, compiler.Options{Policy: pol, Target: target}, 1, traces, workers, tvlaBudget(kernel))
	if err != nil {
		return nil, 0, false, err
	}
	if m := wl.DES; m != nil {
		cipher, _, done, err := m.Encrypt(DefaultKey, DefaultPlain, 0)
		if err != nil {
			return nil, 0, false, err
		}
		if !done {
			return nil, 0, false, fmt.Errorf("experiments: %s/%s: encryption did not halt", pol, target.Name())
		}
		out = []uint32{uint32(cipher >> 32), uint32(cipher)}
	} else {
		secret, public, _ := kernels.TVLAInputs(wl.Kernel.Kernel)
		if out, _, err = wl.Kernel.Run(secret, public); err != nil {
			return nil, 0, false, err
		}
	}
	return out, rep.MaxAbsT, rep.Leak, nil
}

// CrossISATable runs the same kernels under the same policies on every
// registered ISA backend and cross-checks outputs and TVLA verdicts.
func CrossISATable(traces, workers int) ([]CrossISARow, error) {
	targets := make([]isa.Target, 0, 2)
	for _, name := range isa.Targets() {
		t, _ := isa.TargetByName(name)
		targets = append(targets, t)
	}
	pols := []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective}

	var rows []CrossISARow
	for _, kernel := range []string{"des", "tea"} {
		for _, pol := range pols {
			row := CrossISARow{Workload: kernel, Policy: pol, Traces: traces,
				OutputsMatch: true, VerdictsMatch: true}
			var refOut []uint32
			for i, t := range targets {
				out, maxT, leak, err := crossISA(kernel, pol, t, traces, workers)
				if err != nil {
					return nil, err
				}
				row.ISAs = append(row.ISAs, t.Name())
				row.MaxAbsT = append(row.MaxAbsT, maxT)
				row.Leak = append(row.Leak, leak)
				if i == 0 {
					refOut = out
					continue
				}
				if len(out) != len(refOut) {
					row.OutputsMatch = false
				} else {
					for j := range out {
						if out[j] != refOut[j] {
							row.OutputsMatch = false
							break
						}
					}
				}
				if leak != row.Leak[0] {
					row.VerdictsMatch = false
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationResult captures one design-choice ablation: whether the key still
// leaks and what the run cost.
type AblationResult struct {
	Name    string
	Leaks   bool
	MaxAbs  float64 // peak |differential| pre-output, pJ
	TotalUJ float64
}

// ablationDiff measures the pre-output differential of two keys under a
// machine configuration.
func ablationDiff(name string, opt compiler.Options, cfg energy.Config) (*AblationResult, error) {
	m, err := desprog.NewFull(opt, cfg)
	if err != nil {
		return nil, err
	}
	d, t1, err := DESDifferential(m, DefaultKey, DefaultPlain, DefaultKeyBit1, DefaultPlain, MaskedRegion(&m.Machine))
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range t1.Totals {
		total += v
	}
	return &AblationResult{
		Name:    name,
		Leaks:   !d.Flat,
		MaxAbs:  d.Stats.MaxAbs,
		TotalUJ: total / 1e6,
	}, nil
}

// Ablations runs the DESIGN.md §6 ablations and returns one row each:
//
//  1. selective (the paper's design — must not leak)
//  2. seeds-only (no forward slicing — leaks through derived values)
//  3. no-precharge (dual rail without precharging — leaks transitions)
//  4. no-clock-gating (normal ops pay the complementary rail — no leak,
//     but costs approach full dual rail)
//  5. no-secure-indexing (S-box offsets unmasked — leaks at table lookups)
//  6. inter-wire-coupling (the paper's stated limitation — leaks even
//     under full masking)
func Ablations() ([]*AblationResult, error) {
	sel := compiler.Options{Policy: compiler.PolicySelective}
	base := energy.DefaultConfig()

	noPrecharge := base
	noPrecharge.DualRailPrecharge = false
	noGating := base
	noGating.ClockGating = false
	coupling := base
	coupling.InterWireCoupling = true

	rows := []struct {
		name string
		opt  compiler.Options
		cfg  energy.Config
	}{
		{"selective (paper design)", sel, base},
		{"seeds-only (no forward slicing)", compiler.Options{Policy: compiler.PolicySeedsOnly}, base},
		{"no-precharge dual rail", sel, noPrecharge},
		{"no clock gating", sel, noGating},
		{"no secure indexing", compiler.Options{Policy: compiler.PolicySelective, DisableSecureIndexing: true}, base},
		{"inter-wire coupling", sel, coupling},
	}
	// Each ablation is an independent compile-and-measure; fan the grid out
	// across the worker pool, rows staying in declaration order.
	out := make([]*AblationResult, len(rows))
	err := sim.ForEach(len(rows), 0, func(i int) error {
		res, err := ablationDiff(rows[i].name, rows[i].opt, rows[i].cfg)
		out[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunAll executes every experiment and writes a formatted report — the
// content recorded in EXPERIMENTS.md. dpaTraces <= 0 selects the full 256.
func RunAll(w io.Writer, dpaTraces int) error {
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format+"\n", args...) }

	p("== Figure 6: energy profile of one unmasked encryption ==")
	f6, err := Figure6(DefaultKey, DefaultPlain, 100)
	if err != nil {
		return err
	}
	p("cycles=%d total=%.1f uJ buckets=%d (width %d)", f6.Cycles, f6.TotalUJ, len(f6.Series), f6.BucketWidth)
	p("rounds visible: %d round starts; SPA period=%d buckets strength=%.2f (~%d rounds)",
		len(f6.RoundStarts), f6.SPA.Period, f6.SPA.Strength, f6.SPA.Rounds)

	p("\n== Figure 7: key-bit-1 differential, round 1, original ==")
	f7, err := Figure7()
	if err != nil {
		return err
	}
	p("window=[%d,%d) max|diff|=%.2f pJ nonzero cycles=%d/%d",
		f7.Window.Start, f7.Window.End, f7.Stats.MaxAbs, f7.Stats.NonZeroes, f7.Stats.N)

	p("\n== Figure 8: two-key differential before masking (round 1) ==")
	f8, err := Figure8(DefaultKey, DefaultKeyBit1, DefaultPlain)
	if err != nil {
		return err
	}
	p("max|diff|=%.2f pJ rms=%.3f flat=%v", f8.Stats.MaxAbs, f8.Stats.RMS, f8.Flat)

	p("\n== Figure 9: two-key differential after masking (round 1) ==")
	f9, err := Figure9(DefaultKey, DefaultKeyBit1, DefaultPlain)
	if err != nil {
		return err
	}
	p("max|diff|=%.6f pJ flat=%v", f9.Stats.MaxAbs, f9.Flat)

	p("\n== Figure 10: two-plaintext differential before masking ==")
	f10, err := Figure10(DefaultKey, DefaultPlain, DefaultPlain2)
	if err != nil {
		return err
	}
	p("max|diff|=%.2f pJ flat=%v", f10.Stats.MaxAbs, f10.Flat)

	p("\n== Figure 11: two-plaintext differential after masking ==")
	f11, err := Figure11(DefaultKey, DefaultPlain, DefaultPlain2)
	if err != nil {
		return err
	}
	p("initial permutation: max|diff|=%.2f pJ flat=%v (insecure region, differences expected)",
		f11.IP.Stats.MaxAbs, f11.IP.Flat)
	p("round 1:             max|diff|=%.6f pJ flat=%v (masked region)",
		f11.Round1.Stats.MaxAbs, f11.Round1.Flat)

	p("\n== Figure 12: masking overhead during 1st key permutation ==")
	f12, err := Figure12(DefaultKey, DefaultPlain)
	if err != nil {
		return err
	}
	p("window=[%d,%d) baseline=%.1f pJ/cyc overhead=%.1f pJ/cyc (paper: ~45 over ~165)",
		f12.Window.Start, f12.Window.End, f12.BaselinePJ, f12.MeanOverheadPJ)

	p("\n== Table (sec 4.3): total energy per protection policy ==")
	tbl, err := TableTotals(DefaultKey, DefaultPlain)
	if err != nil {
		return err
	}
	p("%-16s %10s %12s %10s %14s", "policy", "total uJ", "avg pJ/cyc", "paper uJ", "secure insts")
	for _, row := range tbl.Report.Rows {
		p("%-16s %10.2f %12.1f %10.1f %8d/%d", row.Policy, row.TotalUJ, row.AvgPJCycle,
			tbl.PaperUJ[row.Policy], row.SecureInst, row.Insts)
	}
	p("headline: selective avoids %.1f%% of the full dual-rail overhead (paper: 83%%)",
		100*tbl.HeadlineSavings())

	p("\n== Optimization ablation: the taint-sound pass pipeline (-O) ==")
	ot, err := OptimizationTable(DefaultKey, DefaultPlain)
	if err != nil {
		return err
	}
	p("%-16s %7s %7s %9s %9s %9s %9s", "policy", "instrs", "-O", "cycles", "-O", "uJ", "-O")
	for _, row := range ot {
		p("%-16s %7d %7d %9d %9d %9.2f %9.2f", row.Policy,
			row.Instrs, row.InstrsOpt, row.Cycles, row.CyclesOpt, row.EnergyUJ, row.EnergyUJOpt)
	}

	p("\n== Figure 4: selective code generation (left-side loop) ==")
	f4, err := Figure4CodeGen()
	if err != nil {
		return err
	}
	p("secured %d/%d loads, %d/%d stores; forward slice: %s",
		f4.Report.SecureLoads, f4.Report.TotalLoads,
		f4.Report.SecureStores, f4.Report.TotalStores,
		strings.Join(f4.Report.Tainted, ", "))

	p("\n== DPA attack (Kocher [7] / Goubin-Patarin [5] methodology) ==")
	att, err := DPAAttack(DefaultKey, dpaTraces)
	if err != nil {
		return err
	}
	p("traces=%d", att.NumTraces)
	p("unmasked: recovered %d/8 first-round sub-key chunks", att.RecoveredUnmasked)
	for _, r := range att.Unmasked {
		p("  box %d: guess=%2d truth=%2d peak=%.2f margin=%.2f", r.Box, r.Best.Guess,
			des.SubkeySixBits(DefaultKey, r.Box), r.Best.Peak, r.Margin())
	}
	p("masked:   recovered %d/8 (max differential peak %.6f pJ)", att.RecoveredMasked, att.MaskedPeak)
	p("CPA (Hamming-weight correlation): unmasked %d/8, masked %d/8 (max |corr| %.6f)",
		att.CPARecoveredUnmasked, att.CPARecoveredMasked, att.CPAMaskedPeak)
	if att.FullKeyRecovered {
		p("full 56-bit key recovered from the unmasked system: %016X", att.RecoveredKey)
	} else {
		p("full key recovery incomplete (needs all 8 chunks; increase -traces)")
	}

	p("\n== Generality: the same compiler masking other ciphers ==")
	wl, err := Workloads()
	if err != nil {
		return err
	}
	p("%-8s %10s %12s %14s %14s %12s", "workload", "cycles", "none uJ", "selective uJ", "all-secure uJ", "masked flat")
	for _, row := range wl {
		p("%-8s %10d %12.2f %14.2f %14.2f %12v", row.Name, row.Cycles,
			row.UJ[compiler.PolicyNone], row.UJ[compiler.PolicySelective],
			row.UJ[compiler.PolicyAllSecure], row.MaskedFlat)
	}

	p("\n== TVLA: fixed-vs-random Welch t-test (streaming engine) ==")
	tv, err := TVLATable(32, 0)
	if err != nil {
		return err
	}
	p("%-8s %-22s %5s %6s %8s %14s %6s %12s", "workload", "protection", "stat", "order", "traces", "max |t|", "leak", "key recovery")
	for _, row := range tv {
		prot := row.Policy.String()
		if row.Shuffle {
			prot += "+shuffle"
		}
		rec := "-"
		if row.Stat == "cpa" {
			rec = fmt.Sprintf("%d/8 key=%v", row.Recovered, row.KeyOK)
		}
		p("%-8s %-22s %5s %6d %8d %14.2f %6v %12s",
			row.Workload, prot, row.Stat, row.Order, row.Traces, row.MaxAbsT, row.Leak, rec)
	}
	p("threshold |t| = %.1f; secret varies between populations, window = masked region", leakstat.DefaultThreshold)
	p("cpa rows attack round 1 of the build named under protection; verdicts at these small")
	p("trace counts are indicative — the pinned operating points live in the experiments tests")

	p("\n== Cross-ISA: same source, same policy, every backend ==")
	ci, err := CrossISATable(32, 0)
	if err != nil {
		return err
	}
	p("%-8s %-16s %8s  %-24s %-12s %8s %8s", "workload", "policy", "traces", "max |t| per ISA", "leak per ISA", "outputs", "verdicts")
	for _, row := range ci {
		var ts, ls []string
		for i := range row.ISAs {
			ts = append(ts, fmt.Sprintf("%s=%.2f", row.ISAs[i], row.MaxAbsT[i]))
			ls = append(ls, fmt.Sprintf("%v", row.Leak[i]))
		}
		p("%-8s %-16s %8d  %-24s %-12s %8v %8v", row.Workload, row.Policy, row.Traces,
			strings.Join(ts, " "), strings.Join(ls, "/"), row.OutputsMatch, row.VerdictsMatch)
		if !row.OutputsMatch || !row.VerdictsMatch {
			return fmt.Errorf("experiments: cross-ISA disagreement for %s/%s", row.Workload, row.Policy)
		}
	}

	p("\n== Leak verification (dynamic shadow taint, energy-model independent) ==")
	lv, err := VerifyLeaks()
	if err != nil {
		return err
	}
	p("%-16s %28s %22s", "policy", "leak sites outside declass", "declassified sites")
	for _, row := range lv {
		p("%-16s %28d %22d", row.Policy, row.SitesOutsideDeclass, row.SitesInDeclass)
	}

	p("\n== Component breakdown (SimplePower-style) ==")
	comps, err := ComponentBreakdown(DefaultKey, DefaultPlain)
	if err != nil {
		return err
	}
	names := []string{"clock", "fetch", "decode", "regfile", "alu", "opbus", "resultbus", "pipereg", "membus", "memarray", "complementary"}
	header := fmt.Sprintf("%-12s %8s", "policy", "total")
	for _, n := range names {
		header += fmt.Sprintf(" %9s", n)
	}
	p("%s", header)
	for _, row := range comps {
		line := fmt.Sprintf("%-12s %7.2f", row.Policy, row.Total)
		for _, n := range names {
			line += fmt.Sprintf(" %9.2f", row.ByComp[n])
		}
		p("%s", line)
	}

	p("\n== Peak per-cycle power (GSM constraint, paper sec 2) ==")
	peaks, err := PeakPowerSweep(DefaultKey, DefaultPlain)
	if err != nil {
		return err
	}
	p("%-16s %12s %12s", "policy", "peak pJ/cyc", "avg pJ/cyc")
	for _, row := range peaks {
		p("%-16s %12.1f %12.1f", row.Policy, row.PeakPJ, row.AvgPJ)
	}

	p("\n== Ablations (DESIGN.md sec 6) ==")
	abl, err := Ablations()
	if err != nil {
		return err
	}
	p("%-34s %6s %14s %10s", "variant", "leaks", "max|diff| pJ", "total uJ")
	for _, a := range abl {
		p("%-34s %6v %14.3f %10.2f", a.Name, a.Leaks, a.MaxAbs, a.TotalUJ)
	}
	return nil
}

// LeakVerification runs the independent dynamic-taint checker on the DES
// program and summarises where insecure instructions touched secrets.
type LeakVerification struct {
	Policy compiler.Policy
	// SitesOutsideDeclass counts leaking instruction addresses outside the
	// output permutation (the declassification region) — must be zero for
	// a sound masking policy.
	SitesOutsideDeclass int
	// SitesInDeclass counts the expected public() leaks.
	SitesInDeclass int
	Insts          uint64
}

// VerifyLeaks checks the DES program under each policy with shadow-taint
// execution (package leakcheck) — the energy-model-independent soundness
// check of the masking.
func VerifyLeaks() ([]LeakVerification, error) {
	pols := compiler.Policies()
	machines := make([]*desprog.Machine, len(pols))
	if err := sim.ForEach(len(pols), 0, func(i int) error {
		m, err := desprog.New(pols[i])
		machines[i] = m
		return err
	}); err != nil {
		return nil, err
	}
	jobs := make([]leakcheck.CheckJob, len(pols))
	for i, m := range machines {
		prog := m.Res.Program
		keyAddr := prog.Symbols[compiler.GlobalLabel("key")]
		jobs[i] = leakcheck.CheckJob{
			Prog: prog,
			Setup: func(c *leakcheck.Checker) error {
				for j := 0; j < 64; j++ {
					if err := c.SetWord(keyAddr+uint32(4*j), uint32(j&1), true); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	reports, err := leakcheck.RunBatch(jobs, 0)
	if err != nil {
		return nil, err
	}
	rows := make([]LeakVerification, len(pols))
	for i, rep := range reports {
		lo, hi := machines[i].DeclassRegion()
		outside := rep.LeaksOutsideRegion(lo, hi)
		rows[i] = LeakVerification{
			Policy:              pols[i],
			SitesOutsideDeclass: len(outside),
			SitesInDeclass:      len(rep.Leaks) - len(outside),
			Insts:               rep.Insts,
		}
	}
	return rows, nil
}

// ComponentRow is the per-component energy split of one policy's run — the
// SimplePower-style breakdown showing where the dual-rail premium lands.
type ComponentRow struct {
	Policy compiler.Policy
	Total  float64 // µJ
	ByComp map[string]float64
}

// ComponentBreakdown runs DES under each comparison policy and splits the
// energy by processor component.
func ComponentBreakdown(key, plaintext uint64) ([]ComponentRow, error) {
	pols := []compiler.Policy{
		compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure,
	}
	rows := make([]ComponentRow, len(pols))
	err := sim.ForEach(len(pols), 0, func(i int) error {
		m, err := desprog.New(pols[i])
		if err != nil {
			return err
		}
		_, stats, _, err := m.Encrypt(key, plaintext, 0)
		if err != nil {
			return err
		}
		row := ComponentRow{Policy: pols[i], Total: stats.Energy.Total / 1e6, ByComp: map[string]float64{}}
		for c := energy.Component(0); c < energy.NumComponents; c++ {
			row.ByComp[c.String()] = stats.Energy.By[c] / 1e6
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PeakPower reports the worst single-cycle energy of a run — the paper's §2
// GSM constraint ("specific constraints on maximum power are imposed by the
// GSM specification"): masking must respect not just the energy budget but
// the peak draw.
type PeakPower struct {
	Policy compiler.Policy
	PeakPJ float64
	AvgPJ  float64
}

// PeakPowerSweep measures the per-cycle peak for each policy. The peak is
// tracked by the session's energy meter probe, so no extra instrumentation is
// attached.
func PeakPowerSweep(key, plaintext uint64) ([]PeakPower, error) {
	pols := compiler.Policies()
	rows := make([]PeakPower, len(pols))
	// One machine (and session) per policy, so the sweep parallelises
	// without shared state.
	err := sim.ForEach(len(pols), 0, func(i int) error {
		m, err := desprog.New(pols[i])
		if err != nil {
			return err
		}
		_, stats, _, err := m.Encrypt(key, plaintext, 0)
		if err != nil {
			return err
		}
		rows[i] = PeakPower{Policy: pols[i], PeakPJ: stats.PeakPJ, AvgPJ: stats.AvgPJPerCycle()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
