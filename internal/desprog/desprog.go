// Package desprog contains the DES encryption program that runs on the
// simulated smart-card processor: the paper's workload. The program is
// written in MiniC in the paper's bit-per-word style (cf. Figure 4's
// `newL[i] = oldR[i]` loop), with the 64-bit key annotated `secure`, and is
// structured into the phases of the paper's Figure 2 — initial permutation,
// key permutation, per-round key generation / right side / left side, and
// the (deliberately insecure) output inverse permutation — one function per
// phase, so that energy-trace windows can be located from the symbol table.
//
// The MiniC source is generated from the FIPS tables in package des, which
// also serves as the correctness oracle.
package desprog

import (
	"fmt"
	"strings"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/energy"
	"desmask/internal/harness"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// Source returns the MiniC source of the DES encryption program.
func Source() string { return source(false) }

// SourceDecrypt returns the MiniC source of the DES decryption program: the
// same rounds with the sub-keys consumed in reverse order, generated
// on the fly by emitting PC-2 before rotating (rightward) each round.
func SourceDecrypt() string { return source(true) }

func source(decrypt bool) string {
	var b strings.Builder
	b.WriteString(`// DES for the desmask simulated smart-card core.
// Bit-per-word data layout; the key is the secure seed.

secure int key[64];      // input: key bits, MSB first (FIPS bit 1 = key[0])
int plaintext[64];       // input: plaintext bits, MSB first
int cipher[64];          // output: ciphertext bits, MSB first

`)
	writeTable := func(name string, vals []int) {
		fmt.Fprintf(&b, "int %s[%d] = {", name, len(vals))
		for i, v := range vals {
			if i > 0 {
				b.WriteString(", ")
			}
			if i%16 == 0 && i > 0 {
				b.WriteString("\n\t")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteString("};\n")
	}
	writeTable("IP_TAB", des.IP)
	writeTable("FP_TAB", des.FP)
	writeTable("E_TAB", des.E)
	writeTable("P_TAB", des.P)
	writeTable("PC1_TAB", des.PC1)
	writeTable("PC2_TAB", des.PC2)
	writeTable("SHIFT_TAB", des.Shifts)
	sbox := make([]int, 0, 512)
	for box := 0; box < 8; box++ {
		for i := 0; i < 64; i++ {
			sbox = append(sbox, int(des.SBox[box][i]))
		}
	}
	writeTable("SBOX_TAB", sbox)

	b.WriteString(`
int L[32];
int R[32];
int C[28];
int D[28];
int SUBKEY[48];
int ER[48];
int SOUT[32];
int FOUT[32];
int IPOUT[64];
int PRE[64];

// Initial permutation of the plaintext and split into halves. Uses no key
// material, so it runs entirely insecure (paper Figure 2).
void initial_permutation() {
	int i;
	for (i = 0; i < 64; i = i + 1) { IPOUT[i] = plaintext[IP_TAB[i] - 1]; }
	for (i = 0; i < 32; i = i + 1) { L[i] = IPOUT[i]; }
	for (i = 0; i < 32; i = i + 1) { R[i] = IPOUT[32 + i]; }
}

// PC-1: (C,D) = PermuteK1(Key). Reads the secure key, so the compiler
// protects every value access here.
void key_permutation() {
	int i;
	for (i = 0; i < 28; i = i + 1) { C[i] = key[PC1_TAB[i] - 1]; }
	for (i = 0; i < 28; i = i + 1) { D[i] = key[PC1_TAB[28 + i] - 1]; }
}

__KEYGEN__

// Right side operation: FOUT = L ^ P(S(E(R) ^ K)). The S-box lookups use
// key-derived indices, exercising the secure-indexing path.
void right_side() {
	int i;
	int box;
	int base;
	int sidx;
	int val;
	for (i = 0; i < 48; i = i + 1) { ER[i] = R[E_TAB[i] - 1] ^ SUBKEY[i]; }
	shuffle for (box = 0; box < 8; box = box + 1) {
		base = box * 6;
		sidx = (ER[base] * 2 + ER[base + 5]) * 16
			+ ER[base + 1] * 8 + ER[base + 2] * 4
			+ ER[base + 3] * 2 + ER[base + 4];
		val = SBOX_TAB[box * 64 + sidx];
		SOUT[box * 4] = (val >> 3) & 1;
		SOUT[box * 4 + 1] = (val >> 2) & 1;
		SOUT[box * 4 + 2] = (val >> 1) & 1;
		SOUT[box * 4 + 3] = val & 1;
	}
	for (i = 0; i < 32; i = i + 1) { FOUT[i] = L[i] ^ SOUT[P_TAB[i] - 1]; }
}

// Left side operation: Lm = Rm-1 (the paper's Figure 4 loop).
void left_side() {
	int i;
	for (i = 0; i < 32; i = i + 1) { L[i] = R[i]; }
}

// Commit the round function output: Rm = Lm-1 ^ f(Rm-1, K).
void update_right() {
	int i;
	for (i = 0; i < 32; i = i + 1) { R[i] = FOUT[i]; }
}

// Output = IP^-1(R16 || L16). Reveals only what the ciphertext reveals, so
// the paper leaves it insecure: public() declassifies the final state.
void output_permutation() {
	int i;
	for (i = 0; i < 32; i = i + 1) { PRE[i] = public(R[i]); }
	for (i = 0; i < 32; i = i + 1) { PRE[32 + i] = public(L[i]); }
	for (i = 0; i < 64; i = i + 1) { cipher[i] = PRE[FP_TAB[i] - 1]; }
}

__MAIN__
`)
	src := b.String()
	keygenEnc := `// Round key generation: rotate C and D left by n, then K = PC-2(C || D).
void key_generation(int n) {
	int i;
	int idx;
	int tc[28];
	int td[28];
	for (i = 0; i < 28; i = i + 1) {
		idx = i + n;
		if (idx >= 28) { idx = idx - 28; }
		tc[i] = C[idx];
		td[i] = D[idx];
	}
	for (i = 0; i < 28; i = i + 1) { C[i] = tc[i]; }
	for (i = 0; i < 28; i = i + 1) { D[i] = td[i]; }
	for (i = 0; i < 48; i = i + 1) {
		idx = PC2_TAB[i] - 1;
		if (idx < 28) { SUBKEY[i] = C[idx]; }
		else { SUBKEY[i] = D[idx - 28]; }
	}
}
`
	keygenDec := `// Decryption round key generation: emit K = PC-2(C || D) first (so the
// first round sees K16 — PC-1 of the key equals the state after the full
// 28-bit rotation), then rotate C and D right by n (left by 28-n).
void key_generation(int n) {
	int i;
	int idx;
	int tc[28];
	int td[28];
	for (i = 0; i < 48; i = i + 1) {
		idx = PC2_TAB[i] - 1;
		if (idx < 28) { SUBKEY[i] = C[idx]; }
		else { SUBKEY[i] = D[idx - 28]; }
	}
	for (i = 0; i < 28; i = i + 1) {
		idx = (i + 28) - n;
		if (idx >= 28) { idx = idx - 28; }
		tc[i] = C[idx];
		td[i] = D[idx];
	}
	for (i = 0; i < 28; i = i + 1) { C[i] = tc[i]; }
	for (i = 0; i < 28; i = i + 1) { D[i] = td[i]; }
}
`
	mainEnc := `void main() {
	int r;
	initial_permutation();
	key_permutation();
	for (r = 0; r < 16; r = r + 1) {
		key_generation(SHIFT_TAB[r]);
		right_side();
		left_side();
		update_right();
	}
	output_permutation();
}
`
	mainDec := `void main() {
	int r;
	initial_permutation();
	key_permutation();
	for (r = 0; r < 16; r = r + 1) {
		key_generation(SHIFT_TAB[15 - r]);
		right_side();
		left_side();
		update_right();
	}
	output_permutation();
}
`
	if decrypt {
		src = strings.Replace(src, "__KEYGEN__", keygenDec, 1)
		src = strings.Replace(src, "__MAIN__", mainDec, 1)
	} else {
		src = strings.Replace(src, "__KEYGEN__", keygenEnc, 1)
		src = strings.Replace(src, "__MAIN__", mainEnc, 1)
	}
	return src
}

// Phase names whose f_<name> symbols delimit trace windows.
const (
	FuncInitialPermutation = "initial_permutation"
	FuncKeyPermutation     = "key_permutation"
	FuncKeyGeneration      = "key_generation"
	FuncRightSide          = "right_side"
	FuncLeftSide           = "left_side"
	FuncUpdateRight        = "update_right"
	FuncOutputPermutation  = "output_permutation"
)

// Machine is a compiled DES program ready to encrypt on the simulator under
// one protection policy and energy configuration. Its secret is the key, and
// the output permutation declassifies the ciphertext.
type Machine struct {
	harness.Machine
	// Decrypt marks a machine built from SourceDecrypt.
	Decrypt bool
}

// New compiles the DES program under the given policy with the default
// energy configuration.
func New(policy compiler.Policy) (*Machine, error) {
	return NewFull(compiler.Options{Policy: policy}, energy.DefaultConfig())
}

// NewFull compiles the DES program with full compiler options and energy
// configuration, enabling every ablation.
func NewFull(opt compiler.Options, cfg energy.Config) (*Machine, error) {
	return newMachine(Source(), opt, cfg, false)
}

// NewDecrypt compiles the DES *decryption* program under the given policy.
// On the returned machine, Encrypt takes a ciphertext block and produces
// the plaintext (the "cipher" output global holds the decryption result).
func NewDecrypt(policy compiler.Policy) (*Machine, error) {
	return newMachine(SourceDecrypt(), compiler.Options{Policy: policy}, energy.DefaultConfig(), true)
}

// newMachine compiles a DES program and resolves its job layout.
func newMachine(src string, opt compiler.Options, cfg energy.Config, decrypt bool) (*Machine, error) {
	res, err := compiler.CompileWithOptions(src, opt)
	m := &Machine{Decrypt: decrypt}
	if err == nil {
		err = m.Init(res, cfg, FuncOutputPermutation,
			[]harness.Port{{Field: "key", Global: "key"}, {Field: "plaintext", Global: "plaintext"}},
			harness.Port{Field: "cipher", Global: "cipher"}, 64)
	}
	if err != nil {
		return nil, fmt.Errorf("desprog: %w", err)
	}
	return m, nil
}

// spreadBits unpacks v into the 64 words of dst, MSB first.
func spreadBits(dst []uint32, v uint64) {
	for i := range dst[:64] {
		dst[i] = uint32(v >> (63 - i) & 1)
	}
}

// gatherBits packs 64 words (MSB first) into a uint64.
func gatherBits(words []uint32) uint64 {
	var v uint64
	for i := 0; i < 64; i++ {
		v = v<<1 | uint64(words[i]&1)
	}
	return v
}

// EncryptJob assembles the sim.Job of one encryption: the key and plaintext
// bits are poked into their input globals in a fixed order (key first, then
// plaintext) so simulation setup is fully deterministic, and the ciphertext
// global is read back. On masked/shuffled machines it delegates to
// EncryptJobSeeded with seed 0 — deterministic, but every trace of a batch
// built this way reuses the same masks; attack and statistics drivers must
// use EncryptJobSeeded with fresh per-trace seeds.
func (m *Machine) EncryptJob(key, plaintext uint64, maxCycles uint64, capture bool) (sim.Job, error) {
	return m.EncryptJobSeeded(key, plaintext, 0, maxCycles, capture)
}

// EncryptJobSeeded is EncryptJob plus the masking/shuffling runtime state of
// one execution, all derived from maskSeed (see harness.Layout.Job): on a
// PolicyBooleanMask machine the key is poked as share pairs, the scrub word
// and fresh-mask pool are filled, and the final pool cursor is read back
// (Reads[1]); a shuffled machine gets a fresh __shuf permutation. On
// unprotected machines maskSeed is ignored. Reads[0] is always the
// ciphertext.
func (m *Machine) EncryptJobSeeded(key, plaintext uint64, maskSeed int64, maxCycles uint64, capture bool) (sim.Job, error) {
	var bits [128]uint32
	spreadBits(bits[:64], key)
	spreadBits(bits[64:], plaintext)
	job, err := m.NewJob(maskSeed, bits[:64], bits[64:])
	if err != nil {
		return sim.Job{}, fmt.Errorf("desprog: %w", err)
	}
	job.MaxCycles, job.Trace = maxCycles, capture
	return job, nil
}

// Encrypt runs one encryption through the simulation session. maxCycles
// == 0 uses sim.DefaultMaxCycles; when the budget expires before completion
// (useful for first-round-only attack traces) the partial result is
// returned with done == false.
func (m *Machine) Encrypt(key, plaintext uint64, maxCycles uint64) (cipherText uint64, stats sim.Stats, done bool, err error) {
	job, err := m.EncryptJob(key, plaintext, maxCycles, false)
	if err != nil {
		return 0, sim.Stats{}, false, err
	}
	res := m.Runner().Run(job)
	if res.Err != nil {
		return 0, sim.Stats{}, false, res.Err
	}
	return gatherBits(res.Mem[0]), res.Stats, res.Done, nil
}

// EncryptBatch runs one encryption per plaintext under the same key across
// the session's worker pool, returning results in plaintext order. capture
// records each run's full per-cycle trace. maxCycles == 0 uses
// sim.DefaultMaxCycles.
func (m *Machine) EncryptBatch(key uint64, plaintexts []uint64, maxCycles uint64, capture bool, opts sim.Options) ([]sim.Result, error) {
	jobs := make([]sim.Job, len(plaintexts))
	for i, pt := range plaintexts {
		job, err := m.EncryptJobSeeded(key, pt, sim.DeriveSeed(0, i), maxCycles, capture)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	return m.Runner().RunBatch(jobs, opts)
}

// Input is one (key, plaintext) pair of a trace batch.
type Input struct {
	Key       uint64
	Plaintext uint64
}

// TraceBatchSeeded captures full per-cycle traces for several inputs in
// parallel, returning traces and ciphertexts in input order. Trace i runs
// with per-execution masks derived from (maskSeed, i), so every trace of
// the batch draws an independent fresh-mask stream.
func (m *Machine) TraceBatchSeeded(inputs []Input, maskSeed int64, opts sim.Options) ([]*trace.Trace, []uint64, error) {
	jobs := make([]sim.Job, len(inputs))
	for i, in := range inputs {
		job, err := m.EncryptJobSeeded(in.Key, in.Plaintext, sim.DeriveSeed(maskSeed, i), 0, true)
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = job
	}
	results, err := m.Runner().RunBatch(jobs, opts)
	if err != nil {
		return nil, nil, err
	}
	traces := make([]*trace.Trace, len(results))
	ciphers := make([]uint64, len(results))
	for i, r := range results {
		if !r.Done {
			return nil, nil, fmt.Errorf("desprog: encryption %d exceeded %d cycles", i, uint64(sim.DefaultMaxCycles))
		}
		traces[i] = r.Trace
		ciphers[i] = gatherBits(r.Mem[0])
	}
	return traces, ciphers, nil
}

// CipherBatch encrypts several (key, plaintext) pairs in parallel without
// capturing traces — the cheap path for batch verification — returning
// ciphertexts in input order.
func (m *Machine) CipherBatch(inputs []Input, opts sim.Options) ([]uint64, error) {
	jobs := make([]sim.Job, len(inputs))
	for i, in := range inputs {
		job, err := m.EncryptJobSeeded(in.Key, in.Plaintext, sim.DeriveSeed(0, i), 0, false)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	results, err := m.Runner().RunBatch(jobs, opts)
	if err != nil {
		return nil, err
	}
	ciphers := make([]uint64, len(results))
	for i, r := range results {
		if !r.Done {
			return nil, fmt.Errorf("desprog: encryption %d exceeded %d cycles", i, uint64(sim.DefaultMaxCycles))
		}
		ciphers[i] = gatherBits(r.Mem[0])
	}
	return ciphers, nil
}

// TraceRun runs one full encryption capturing the complete per-cycle trace
// along with the run statistics.
func (m *Machine) TraceRun(key, plaintext uint64) (*trace.Trace, uint64, sim.Stats, error) {
	job, err := m.EncryptJob(key, plaintext, 0, true)
	if err != nil {
		return nil, 0, sim.Stats{}, err
	}
	res := m.Runner().Run(job)
	if res.Err != nil {
		return nil, 0, sim.Stats{}, res.Err
	}
	if !res.Done {
		return nil, 0, sim.Stats{}, fmt.Errorf("desprog: encryption exceeded %d cycles", uint64(sim.DefaultMaxCycles))
	}
	return res.Trace, gatherBits(res.Mem[0]), res.Stats, nil
}

// Trace runs one full encryption capturing the complete per-cycle trace.
func (m *Machine) Trace(key, plaintext uint64) (*trace.Trace, uint64, error) {
	tr, cipherText, _, err := m.TraceRun(key, plaintext)
	return tr, cipherText, err
}

// RoundStarts returns the cycle at which each of the 16 rounds begins: the
// cycles whose EX-stage PC is the entry of key_generation.
func (m *Machine) RoundStarts(tr *trace.Trace) ([]int, error) {
	entry, err := m.EntryPC(FuncKeyGeneration)
	if err != nil {
		return nil, err
	}
	var starts []int
	for i, pc := range tr.PCs {
		if pc == entry {
			starts = append(starts, i)
		}
	}
	return starts, nil
}

// RoundWindow returns the cycle window of round r (0-based). The final round
// ends where the output permutation begins.
func (m *Machine) RoundWindow(tr *trace.Trace, r int) (trace.Window, error) {
	starts, err := m.RoundStarts(tr)
	if err != nil {
		return trace.Window{}, err
	}
	if r < 0 || r >= len(starts) {
		return trace.Window{}, fmt.Errorf("desprog: round %d outside trace (%d rounds found)", r, len(starts))
	}
	if r+1 < len(starts) {
		return trace.Window{Start: starts[r], End: starts[r+1]}, nil
	}
	end, err := m.MaskedRegionEnd(tr)
	if err != nil {
		return trace.Window{}, err
	}
	return trace.Window{Start: starts[r], End: end}, nil
}

// PhaseWindow returns the cycle window of one phase function's first
// invocation (e.g. the first key permutation for Figure 12).
func (m *Machine) PhaseWindow(tr *trace.Trace, fn, nextFn string) (trace.Window, error) {
	entry, err := m.EntryPC(fn)
	if err != nil {
		return trace.Window{}, err
	}
	next, err := m.EntryPC(nextFn)
	if err != nil {
		return trace.Window{}, err
	}
	w := trace.Window{Start: -1, End: -1}
	for i, pc := range tr.PCs {
		if pc == entry && w.Start < 0 {
			w.Start = i
		}
		if pc == next && w.Start >= 0 {
			w.End = i
			return w, nil
		}
	}
	return trace.Window{}, fmt.Errorf("desprog: phase %q window not found", fn)
}
