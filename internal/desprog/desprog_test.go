package desprog

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/des"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/mem"
	"desmask/internal/minic"
	"desmask/internal/trace"
)

const (
	testKey   = 0x133457799BBCDFF1
	testKey2  = 0x133457799BBCDFF1 ^ (1 << 62) // differs in FIPS bit 2 (a non-parity bit)
	testPlain = 0x0123456789ABCDEF
)

// Machines are expensive to build (compile + assemble); share them.
var (
	machOnce sync.Once
	machines map[compiler.Policy]*Machine
)

func mach(t *testing.T, p compiler.Policy) *Machine {
	t.Helper()
	machOnce.Do(func() {
		machines = map[compiler.Policy]*Machine{}
		for _, pol := range compiler.Policies() {
			m, err := New(pol)
			if err != nil {
				panic(err)
			}
			machines[pol] = m
		}
	})
	return machines[p]
}

func TestSimulatedMatchesReferenceClassic(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	ct, stats, done, err := m.Encrypt(testKey, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("encryption did not finish")
	}
	if want := des.Encrypt(testKey, testPlain); ct != want {
		t.Fatalf("cipher = %#016x, want %#016x", ct, want)
	}
	if stats.Cycles < 50_000 || stats.Cycles > 1_000_000 {
		t.Errorf("cycle count %d outside plausible range", stats.Cycles)
	}
}

func TestSimulatedMatchesReferenceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := mach(t, compiler.PolicyNone)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5; i++ {
		key, pt := rng.Uint64(), rng.Uint64()
		ct, _, done, err := m.Encrypt(key, pt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("did not finish")
		}
		if want := des.Encrypt(key, pt); ct != want {
			t.Fatalf("key=%#x pt=%#x: cipher = %#016x, want %#016x", key, pt, ct, want)
		}
	}
}

func TestAllPoliciesProduceSameCiphertext(t *testing.T) {
	want := des.Encrypt(testKey, testPlain)
	for _, pol := range compiler.Policies() {
		ct, _, done, err := mach(t, pol).Encrypt(testKey, testPlain, 0)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if !done || ct != want {
			t.Errorf("%v: cipher = %#016x (done=%v), want %#016x", pol, ct, done, want)
		}
	}
}

func TestBitSpreadGatherRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeefcafef00d, ^uint64(0), 1 << 63} {
		if got := gatherBits(spreadBits(v)); got != v {
			t.Errorf("round trip %#x -> %#x", v, got)
		}
	}
	bits := spreadBits(1 << 63)
	if bits[0] != 1 || bits[1] != 0 {
		t.Error("spreadBits must be MSB first")
	}
}

func TestCycleCountKeyIndependent(t *testing.T) {
	// The control flow must not depend on the key: equal cycle counts give
	// cycle-aligned differential traces.
	m := mach(t, compiler.PolicyNone)
	_, s1, _, err := m.Encrypt(testKey, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, _, err := m.Encrypt(testKey2, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cycles != s2.Cycles {
		t.Errorf("cycle counts differ with key: %d vs %d", s1.Cycles, s2.Cycles)
	}
	_, s3, _, err := m.Encrypt(testKey, ^uint64(testPlain), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cycles != s3.Cycles {
		t.Errorf("cycle counts differ with plaintext: %d vs %d", s1.Cycles, s3.Cycles)
	}
}

func TestRoundStructure(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	tr, _, err := m.Trace(testKey, testPlain)
	if err != nil {
		t.Fatal(err)
	}
	starts, err := m.RoundStarts(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 16 {
		t.Fatalf("found %d rounds, want 16", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatal("round starts not increasing")
		}
	}
	// Rounds should have similar lengths (identical code path).
	w0, err := m.RoundWindow(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	w10, err := m.RoundWindow(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(w0.Len()) / float64(w10.Len())
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("round lengths diverge: %d vs %d", w0.Len(), w10.Len())
	}
	if _, err := m.RoundWindow(tr, 16); err == nil {
		t.Error("round 16 should not exist")
	}
}

func TestPhaseWindows(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	tr, _, err := m.Trace(testKey, testPlain)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := m.PhaseWindow(tr, FuncInitialPermutation, FuncKeyPermutation)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := m.PhaseWindow(tr, FuncKeyPermutation, FuncKeyGeneration)
	if err != nil {
		t.Fatal(err)
	}
	if !(ip.Start < ip.End && ip.End <= kp.Start && kp.Start < kp.End) {
		t.Errorf("phase windows out of order: ip=%+v kp=%+v", ip, kp)
	}
	if kp.Len() < 100 {
		t.Errorf("key permutation window suspiciously short: %d cycles", kp.Len())
	}
}

// diffTraces returns per-cycle |a-b| totals for two runs on one machine.
func diffTraces(t *testing.T, m *Machine, k1, p1, k2, p2 uint64) ([]float64, *trace.Trace, *trace.Trace) {
	t.Helper()
	t1, _, err := m.Trace(k1, p1)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := m.Trace(k2, p2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.Diff(t1.Totals, t2.Totals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		d[i] = math.Abs(d[i])
	}
	return d, t1, t2
}

func TestKeyDifferenceLeaksUnmasked(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	d, tr, _ := diffTraces(t, m, testKey, testPlain, testKey2, testPlain)
	w, err := m.RoundWindow(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(d[w.Start:w.End])
	if s.MaxAbs < 1 {
		t.Errorf("unmasked first round shows no key-dependent differential (max %.3f pJ)", s.MaxAbs)
	}
}

func TestKeyDifferenceMaskedSelective(t *testing.T) {
	m := mach(t, compiler.PolicySelective)
	d, tr, _ := diffTraces(t, m, testKey, testPlain, testKey2, testPlain)
	// Every cycle up to the output permutation must be identical: the key
	// never flows through an insecure operation.
	entry, err := m.EntryPC(FuncOutputPermutation)
	if err != nil {
		t.Fatal(err)
	}
	end := tr.Len()
	for i, pc := range tr.PCs {
		if pc == entry {
			end = i
			break
		}
	}
	for i := 0; i < end; i++ {
		if d[i] > 1e-9 {
			t.Fatalf("cycle %d leaks key difference under selective masking (%.4f pJ)", i, d[i])
		}
	}
}

func TestPlaintextDifferenceVisibleInIPOnly(t *testing.T) {
	m := mach(t, compiler.PolicySelective)
	d, tr, _ := diffTraces(t, m, testKey, testPlain, testKey, ^uint64(testPlain))
	ip, err := m.PhaseWindow(tr, FuncInitialPermutation, FuncKeyPermutation)
	if err != nil {
		t.Fatal(err)
	}
	sIP := trace.Summarize(d[ip.Start:ip.End])
	if sIP.MaxAbs < 1 {
		t.Error("masked run should still show plaintext differences during the (insecure) initial permutation")
	}
	// Rounds must be silent.
	w0, err := m.RoundWindow(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	w15, err := m.RoundWindow(tr, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := w0.Start; i < w15.End; i++ {
		if d[i] > 1e-9 {
			t.Fatalf("cycle %d in rounds leaks plaintext difference under masking (%.4f pJ)", i, d[i])
		}
	}
}

func TestSecureInstructionShare(t *testing.T) {
	// Selective must secure a real but minority share of instructions.
	m := mach(t, compiler.PolicySelective)
	_, stats, _, err := m.Encrypt(testKey, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(stats.SecureInst) / float64(stats.Insts)
	if frac < 0.02 || frac > 0.5 {
		t.Errorf("secure instruction share = %.3f, want minority but non-trivial", frac)
	}
}

func TestPartialRunForAttackTraces(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	job, err := m.EncryptJob(testKey, testPlain, 30_000, true)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Runner().Run(job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Done {
		t.Error("30k cycles should not complete a full encryption")
	}
	if res.Stats.Cycles != 30_000 || res.Trace.Len() != 30_000 {
		t.Errorf("partial run recorded %d cycles, want 30000", res.Trace.Len())
	}
}

func TestEnergyTotalsOrdering(t *testing.T) {
	var prev float64
	for i, pol := range []compiler.Policy{
		compiler.PolicyNone, compiler.PolicySelective,
		compiler.PolicyNaiveLoadStore, compiler.PolicyAllSecure,
	} {
		_, stats, _, err := mach(t, pol).Encrypt(testKey, testPlain, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && stats.Energy.Total <= prev {
			t.Errorf("%v total %.0f pJ not above previous %.0f pJ", pol, stats.Energy.Total, prev)
		}
		prev = stats.Energy.Total
	}
}

func TestSourceIsStable(t *testing.T) {
	if Source() != Source() {
		t.Error("Source must be deterministic")
	}
	if len(Source()) < 2000 {
		t.Error("Source suspiciously short")
	}
}

func TestEntryPCErrors(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	if _, err := m.EntryPC("nonexistent"); err == nil {
		t.Error("EntryPC for unknown function should fail")
	}
}

func TestDecryptMatchesReference(t *testing.T) {
	m, err := NewDecrypt(compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	ct := des.Encrypt(testKey, testPlain)
	pt, _, done, err := m.Encrypt(testKey, ct, 0)
	if err != nil || !done {
		t.Fatalf("decrypt run: %v done=%v", err, done)
	}
	if pt != testPlain {
		t.Fatalf("decrypt = %#016x, want %#016x", pt, testPlain)
	}
}

func TestDecryptRoundTripMasked(t *testing.T) {
	enc := mach(t, compiler.PolicySelective)
	dec, err := NewDecrypt(compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	ct, _, _, err := enc.Encrypt(testKey, testPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, done, err := dec.Encrypt(testKey, ct, 0)
	if err != nil || !done {
		t.Fatalf("decrypt: %v", err)
	}
	if pt != testPlain {
		t.Fatalf("masked round trip = %#016x, want %#016x", pt, testPlain)
	}
	if !dec.Decrypt {
		t.Error("Decrypt flag not set")
	}
}

func TestDecryptMaskedFlat(t *testing.T) {
	dec, err := NewDecrypt(compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	ct := des.Encrypt(testKey, testPlain)
	d, tr, _ := diffTraces(t, dec, testKey, ct, testKey2, ct)
	entry, err := dec.EntryPC(FuncOutputPermutation)
	if err != nil {
		t.Fatal(err)
	}
	end := tr.Len()
	for i, pc := range tr.PCs {
		if pc == entry {
			end = i
			break
		}
	}
	for i := 0; i < end; i++ {
		if d[i] > 1e-9 {
			t.Fatalf("decryption cycle %d leaks key difference under masking", i)
		}
	}
}

// TestCosimAgainstGoldenModel runs the full compiled DES program on both the
// pipeline (one lane) and the unpipelined golden model and requires identical
// architectural results — the strongest end-to-end check of the pipeline's
// hazard machinery.
func TestCosimAgainstGoldenModel(t *testing.T) {
	m := mach(t, compiler.PolicyNone)
	prog := m.Res.Program

	pipe, err := gang.New(prog, energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Reset(1); err != nil {
		t.Fatal(err)
	}
	ref, err := cpu.NewRef(prog, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	pokeBits := func(m *mem.Memory, sym string, v uint64) {
		addr := prog.Symbols[compiler.GlobalLabel(sym)]
		for i := 0; i < 64; i++ {
			if err := m.StoreWord(addr+uint32(4*i), uint32(v>>(63-i)&1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range []*mem.Memory{pipe.Lane(0).Mem, ref.Mem()} {
		pokeBits(m, "key", testKey)
		pokeBits(m, "plaintext", testPlain)
	}
	if err := pipe.Run(MaxCycles); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(MaxCycles); err != nil {
		t.Fatal(err)
	}
	if pipe.Stats().Insts != ref.Insts() {
		t.Errorf("pipeline retired %d, golden model executed %d", pipe.Stats().Insts, ref.Insts())
	}
	cAddr := prog.Symbols[compiler.GlobalLabel("cipher")]
	for i := 0; i < 64; i++ {
		pv, _ := pipe.Lane(0).Mem.LoadWord(cAddr + uint32(4*i))
		rv, _ := ref.Mem().LoadWord(cAddr + uint32(4*i))
		if pv != rv {
			t.Fatalf("cipher bit %d: pipeline %d, golden model %d", i, pv, rv)
		}
	}
}

// TestDESInterpreterAgrees runs the DES MiniC source on the independent AST
// interpreter and checks the ciphertext against the reference — a third
// execution path for the flagship workload.
func TestDESInterpreterAgrees(t *testing.T) {
	f, err := minic.Parse(Source())
	if err != nil {
		t.Fatal(err)
	}
	in := minic.NewInterp(f)
	in.MaxSteps = 50_000_000
	keyBits := make([]uint32, 64)
	ptBits := make([]uint32, 64)
	for i := 0; i < 64; i++ {
		keyBits[i] = uint32(uint64(testKey) >> (63 - i) & 1)
		ptBits[i] = uint32(uint64(testPlain) >> (63 - i) & 1)
	}
	if err := in.SetGlobal("key", keyBits); err != nil {
		t.Fatal(err)
	}
	if err := in.SetGlobal("plaintext", ptBits); err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	bits, err := in.Global("cipher")
	if err != nil {
		t.Fatal(err)
	}
	var ct uint64
	for _, b := range bits {
		ct = ct<<1 | uint64(b&1)
	}
	if want := des.Encrypt(testKey, testPlain); ct != want {
		t.Fatalf("interpreter cipher = %#016x, want %#016x", ct, want)
	}
}
