package sim_test

// Gang-mode property tests: for every (gang width, worker count, policy,
// ISA) combination the batch scheduler must produce results bit-identical to
// scalar execution — pinned against the golden manifest where one exists and
// against a fresh scalar batch everywhere else — and the divergence corpus
// (data-dependent branches, faults, tight cycle budgets) must deopt back to
// exact scalar results rather than silently diverge.

import (
	"fmt"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/sim"
)

// normalizeGang strips the accumulations gang mode deliberately omits
// (Stats.Energy, Stats.PeakPJ), so a scalar result can be compared
// field-for-field with a gang-mode result.
func normalizeGang(r sim.Result) sim.Result {
	r.Stats.Energy = energy.CycleEnergy{}
	r.Stats.PeakPJ = 0
	return r
}

// requireSameResult demands two results be bit-identical after gang
// normalization: completion, error, architectural registers, stats, memory
// read-outs, and the full per-cycle trace when captured.
func requireSameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	got, want = normalizeGang(got), normalizeGang(want)
	if (got.Err == nil) != (want.Err == nil) ||
		(got.Err != nil && got.Err.Error() != want.Err.Error()) {
		t.Fatalf("%s: err = %v, want %v", label, got.Err, want.Err)
	}
	if got.Done != want.Done {
		t.Fatalf("%s: done = %v, want %v", label, got.Done, want.Done)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats = %+v, want %+v", label, got.Stats, want.Stats)
	}
	if got.Regs != want.Regs {
		t.Fatalf("%s: registers diverge: %v vs %v", label, got.Regs, want.Regs)
	}
	if len(got.Mem) != len(want.Mem) {
		t.Fatalf("%s: %d read-outs, want %d", label, len(got.Mem), len(want.Mem))
	}
	for i := range got.Mem {
		if len(got.Mem[i]) != len(want.Mem[i]) {
			t.Fatalf("%s: read %d has %d words, want %d", label, i, len(got.Mem[i]), len(want.Mem[i]))
		}
		for j := range got.Mem[i] {
			if got.Mem[i][j] != want.Mem[i][j] {
				t.Fatalf("%s: read %d word %d = %#x, want %#x", label, i, j, got.Mem[i][j], want.Mem[i][j])
			}
		}
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("%s: trace presence %v vs %v", label, got.Trace != nil, want.Trace != nil)
	}
	if got.Trace != nil && traceHash(got.Trace) != traceHash(want.Trace) {
		t.Fatalf("%s: trace hash %s, want %s", label, traceHash(got.Trace), traceHash(want.Trace))
	}
}

// gangCombos is the (gang width, worker count) grid the properties sweep.
// Short mode keeps one cell per regime (scalar-degenerate, partial gang,
// full-width) so -race smoke stays fast.
func gangCombos(short bool) [][2]int {
	if short {
		return [][2]int{{1, 4}, {4, 1}, {16, 4}}
	}
	var combos [][2]int
	for _, g := range []int{1, 4, 16} {
		for _, w := range []int{1, 4, 16} {
			combos = append(combos, [2]int{g, w})
		}
	}
	return combos
}

// TestGangBatchMatchesGolden pins gang-scheduled DES batches to the golden
// manifest: for every policy and every (gang width, worker count) cell,
// every job's per-cycle trace digest, cycle count and instruction count must
// equal the scalar golden fixture exactly. Batches carry one extra job
// beyond the gang width so the leftover-singleton path is exercised too.
func TestGangBatchMatchesGolden(t *testing.T) {
	for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure} {
		entry, ok := goldenEntry(t, "des", policy.String())
		if !ok {
			t.Skipf("golden manifest has no des/%s entry", policy)
		}
		m, err := desprog.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, gw := range gangCombos(testing.Short()) {
			g, w := gw[0], gw[1]
			t.Run(fmt.Sprintf("%s/gang%d/workers%d", policy, g, w), func(t *testing.T) {
				plaintexts := make([]uint64, g+1)
				for i := range plaintexts {
					plaintexts[i] = goldenPlaintext
				}
				before := m.Runner().GangRuns()
				results, err := encryptBatch(t, m, goldenKey, plaintexts, sim.Options{Workers: w, GangWidth: g})
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if !r.Done {
						t.Fatalf("job %d did not complete", i)
					}
					if r.Stats.Cycles != entry.Cycles || r.Stats.Insts != entry.Insts || r.Stats.SecureInst != entry.SecureInst {
						t.Fatalf("job %d stats (%d cycles, %d insts, %d secure) diverge from golden (%d, %d, %d)",
							i, r.Stats.Cycles, r.Stats.Insts, r.Stats.SecureInst, entry.Cycles, entry.Insts, entry.SecureInst)
					}
					if got := traceHash(r.Trace); got != entry.TraceHash {
						t.Fatalf("job %d trace hash %s, want golden %s", i, got, entry.TraceHash)
					}
					// GangWidth <= 1 disables gangs entirely, so those batches
					// carry the scalar path's Energy accumulation.
					if g > 1 && (r.Stats.Energy != (energy.CycleEnergy{}) || r.Stats.PeakPJ != 0) {
						t.Fatalf("job %d carries Energy/PeakPJ in gang mode", i)
					}
				}
				if g > 1 && m.Runner().GangRuns() == before {
					t.Fatal("no job ran in lockstep despite GangWidth > 1")
				}
			})
		}
	}
}

// TestGangScalarIdentityAcrossISAs runs varied-plaintext DES batches through
// the gang scheduler and a plain scalar batch on both ISA backends under
// every policy, requiring field-for-field identical results (the rv32 axis
// has no golden manifest, so scalar execution is the reference).
func TestGangScalarIdentityAcrossISAs(t *testing.T) {
	plaintexts := []uint64{0x0123456789ABCDEF, 0, 0xFFFFFFFFFFFFFFFF, 0x5555AAAA5555AAAA}
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
				scalar, err := encryptBatch(t, m, goldenKey, plaintexts, sim.Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				ganged, err := encryptBatch(t, m, goldenKey, plaintexts, sim.Options{Workers: 4, GangWidth: 4})
				if err != nil {
					t.Fatal(err)
				}
				for i := range scalar {
					requireSameResult(t, fmt.Sprintf("job %d", i), ganged[i], scalar[i])
				}
			})
		}
	}
}

// batchPair runs the same jobs as a scalar batch and a gang batch on fresh
// runners of the same program and requires identical results; it returns the
// gang runner for counter assertions.
func batchPair(t *testing.T, src string, jobs []sim.Job, opts sim.Options) *sim.Runner {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	scalarRunner := sim.NewRunner(p, energy.DefaultConfig())
	want, werr := scalarRunner.RunBatch(jobs, sim.Options{Workers: opts.Workers})
	gangRunner := sim.NewRunner(p, energy.DefaultConfig())
	got, gerr := gangRunner.RunBatch(jobs, opts)
	// A batch with faulting jobs reports a JobError on both paths; it must
	// name the same job and cause.
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("batch error: gang %v, scalar %v", gerr, werr)
	}
	for i := range want {
		requireSameResult(t, fmt.Sprintf("job %d", i), got[i], want[i])
	}
	return gangRunner
}

// TestGangDivergentBranchesDeoptExactly is the sim-level branch-divergence
// corpus: lanes branch on their own poked data, so some peel off mid-gang.
// Every job — lockstep or replayed — must match the scalar batch exactly,
// and the deopt counter must show the peel actually happened.
func TestGangDivergentBranchesDeoptExactly(t *testing.T) {
	const src = `
		.data
in:	.word 0
out:	.word 0
		.text
main:	lw   $t0, in
		li   $t1, 7
		beq  $t0, $t1, seven
		li   $s0, 100
		j    done
seven:	li   $s0, 200
done:	sw   $s0, out
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []uint32{7, 3, 7, 9, 1, 7, 7, 2}
	jobs := make([]sim.Job, len(inputs))
	for i, in := range inputs {
		jobs[i] = sim.Job{
			Writes: []sim.Write{{Addr: p.DataBase, Val: in}},
			Reads:  []sim.Read{{Addr: p.DataBase + 4, Words: 1}},
		}
	}
	r := batchPair(t, src, jobs, sim.Options{Workers: 2, GangWidth: 4})
	if r.GangDeopts() == 0 {
		t.Error("divergent lanes did not deopt")
	}
	if r.GangRuns() == 0 {
		t.Error("agreeing lanes did not complete in lockstep")
	}
}

// TestGangLaneFaultDeoptsExactly poisons one lane with a misaligned pointer:
// the faulting job must report the same error as a scalar run, and the clean
// lanes must still complete in lockstep.
func TestGangLaneFaultDeoptsExactly(t *testing.T) {
	const src = `
		.data
in:	.word 0
out:	.word 0
		.text
main:	lw   $t0, in
		lw   $t1, 0($t0)
		sw   $t1, out
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := []uint32{p.DataBase, p.DataBase + 1, p.DataBase, p.DataBase + 2}
	jobs := make([]sim.Job, len(ptrs))
	for i, ptr := range ptrs {
		jobs[i] = sim.Job{
			Writes: []sim.Write{{Addr: p.DataBase, Val: ptr}},
			Reads:  []sim.Read{{Addr: p.DataBase + 4, Words: 1}},
		}
	}
	r := batchPair(t, src, jobs, sim.Options{Workers: 1, GangWidth: 4})
	if r.GangDeopts() == 0 {
		t.Error("faulting lanes did not deopt")
	}
}

// TestGangBudgetExpiryStaysLockstep expires the shared cycle budget
// mid-gang: live lanes are NOT deopted — lockstep partial state is exact —
// and the results (Done=false, truncated stats/registers) must match scalar
// partial runs bit-for-bit. RequireHalt jobs get the scalar cycle-limit
// error instead.
func TestGangBudgetExpiryStaysLockstep(t *testing.T) {
	const src = `
		.data
in:	.word 0
		.text
main:	lw   $t0, in
loop:	addiu $t0, $t0, -1
		bgtz $t0, loop
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, requireHalt := range []bool{false, true} {
		jobs := make([]sim.Job, 4)
		for i := range jobs {
			jobs[i] = sim.Job{
				Writes:      []sim.Write{{Addr: p.DataBase, Val: 1 << 20}},
				MaxCycles:   300,
				RequireHalt: requireHalt,
			}
		}
		r := batchPair(t, src, jobs, sim.Options{Workers: 2, GangWidth: 4})
		if r.GangDeopts() != 0 {
			t.Errorf("requireHalt=%v: GangDeopts = %d, want 0 (budget expiry is not a deopt)", requireHalt, r.GangDeopts())
		}
		if r.GangRuns() != 4 {
			t.Errorf("requireHalt=%v: GangRuns = %d, want 4", requireHalt, r.GangRuns())
		}
	}
}

// TestGangMixedShapesSplitUnits mixes budgets and probe-carrying jobs into
// one batch: grouping must split them into uniform units (never guessing a
// shared budget) and still reproduce the scalar batch exactly.
func TestGangMixedShapesSplitUnits(t *testing.T) {
	const src = `
		.data
in:	.word 0
		.text
main:	lw   $t0, in
loop:	addiu $t0, $t0, -1
		bgtz $t0, loop
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []sim.Job
	for i := 0; i < 12; i++ {
		j := sim.Job{Writes: []sim.Write{{Addr: p.DataBase, Val: uint32(20 + i%3)}}}
		switch i % 4 {
		case 1:
			j.MaxCycles = 50 // expires mid-run: a different gang shape
		case 2:
			j.Trace = true
		case 3:
			// An extra probe makes the job gang-ineligible; it must run as a
			// scalar singleton inside the gang-scheduled batch.
			j.Probe = sim.PerRunMeterProbes(func(m *energy.Probe) []cpu.Probe { return nil })
		}
		jobs = append(jobs, j)
	}
	batchPair(t, src, jobs, sim.Options{Workers: 3, GangWidth: 4})
}

// TestGangWorkerCountInvariance fixes the batch and gang width and sweeps
// worker counts: results must be bit-identical regardless of scheduling,
// because gang grouping is precomputed from the job list alone.
func TestGangWorkerCountInvariance(t *testing.T) {
	const src = `
		.data
in:	.word 0
out:	.word 0
		.text
main:	lw   $t0, in
		li   $s0, 0
loop:	xor.s $s0, $s0, $t0
		srl  $t0, $t0, 1
		bgtz $t0, loop
		sw   $s0, out
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]sim.Job, 13)
	for i := range jobs {
		jobs[i] = sim.Job{
			Writes: []sim.Write{{Addr: p.DataBase, Val: uint32(i) * 0x9e3779b9}},
			Reads:  []sim.Read{{Addr: p.DataBase + 4, Words: 1}},
			Trace:  true,
		}
	}
	var ref []sim.Result
	for _, w := range []int{1, 4, 16} {
		r := sim.NewRunner(p, energy.DefaultConfig())
		res, err := r.RunBatch(jobs, sim.Options{Workers: w, GangWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			requireSameResult(t, fmt.Sprintf("workers=%d job %d", w, i), res[i], ref[i])
		}
	}
}

// sampleProbeTest captures the scalar meter's in-window per-cycle totals —
// the reference observation for RunGangSampled's lane buffers.
type sampleProbeTest struct {
	meter      *energy.Probe
	start, end uint64
	buf        []float64
}

func (p *sampleProbeTest) OnCycle(ci cpu.CycleInfo) {
	if ci.Cycle >= p.start && ci.Cycle < p.end {
		p.buf = append(p.buf, p.meter.LastPJ())
	}
}

// TestRunGangSampledMatchesScalarWindow drives the leakstat entry point:
// gang-sampled windowed energy must be bit-identical to a scalar run
// observing the same window through a meter probe, for a window opening
// mid-run (exercising the quiet warm-up path).
func TestRunGangSampledMatchesScalarWindow(t *testing.T) {
	const src = `
		.data
in:	.word 0
out:	.word 0
tmp:	.space 16
		.text
main:	lw   $s0, in
		la   $s3, tmp
		li   $t0, 0
		li   $s1, 0
loop:	xor.s $s2, $s0, $s1
		addu.s $s1, $s1, $s2
		sll  $t1, $t0, 2
		addu $t3, $s3, $t1
		sw   $s1, 0($t3)
		lw   $t2, 0($t3)
		addu $s0, $s0, $t2
		srl  $s0, $s0, 1
		addiu $t0, $t0, 1
		slti $at, $t0, 6
		bne  $at, $zero, loop
		sw   $s1, out
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const start, end = 10, 45
	inputs := []uint32{0xdeadbeef, 1, 0x0f0f0f0f, 0xffffffff}

	// Reference: scalar runs with a per-run meter probe sampling the window.
	scalarRunner := sim.NewRunner(p, energy.DefaultConfig())
	refBufs := make([][]float64, len(inputs))
	for i, in := range inputs {
		probe := &sampleProbeTest{start: start, end: end}
		job := sim.Job{
			Writes: []sim.Write{{Addr: p.DataBase, Val: in}},
			Probe: sim.PerRunMeterProbes(func(m *energy.Probe) []cpu.Probe {
				probe.meter = m
				return []cpu.Probe{probe}
			}),
		}
		if res := scalarRunner.Run(job); res.Err != nil || !res.Done {
			t.Fatalf("scalar job %d: done=%v err=%v", i, res.Done, res.Err)
		}
		refBufs[i] = probe.buf
	}

	gangRunner := sim.NewRunner(p, energy.DefaultConfig())
	jobs := make([]sim.Job, len(inputs))
	bufs := make([][]float64, len(inputs))
	for i, in := range inputs {
		jobs[i] = sim.Job{Writes: []sim.Write{{Addr: p.DataBase, Val: in}}}
		bufs[i] = make([]float64, end-start)
	}
	results := gangRunner.RunGangSampled(jobs, start, end, bufs)
	for i, res := range results {
		if res.Err != nil || !res.Done {
			t.Fatalf("gang job %d: done=%v err=%v", i, res.Done, res.Err)
		}
		for j, want := range refBufs[i] {
			if bufs[i][j] != want {
				t.Fatalf("job %d sample %d: gang %v, scalar %v", i, j, bufs[i][j], want)
			}
		}
	}
	if gangRunner.GangRuns() == 0 {
		t.Error("RunGangSampled fell back to scalar for a lockstep workload")
	}

	// Buffer reuse across gangs (the leakstat steady state): a second pass
	// into the same buffers must reproduce the same samples.
	second := gangRunner.RunGangSampled(jobs, start, end, bufs)
	for i, res := range second {
		if res.Err != nil || !res.Done {
			t.Fatalf("second pass job %d: done=%v err=%v", i, res.Done, res.Err)
		}
		for j, want := range refBufs[i] {
			if bufs[i][j] != want {
				t.Fatalf("second pass job %d sample %d: gang %v, scalar %v", i, j, bufs[i][j], want)
			}
		}
	}
}
