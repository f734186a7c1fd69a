package sim_test

// Golden regression fixtures for the simulator core. The files under
// testdata/ were generated from the pre-refactor (re-decoding, CycleSink)
// core and pin its observable behaviour bit-for-bit: ciphertexts, cycle
// counts, per-cycle energy traces and total energy for every protection
// policy across all four workloads. The predecode + probe core must
// reproduce them exactly; regenerate (-update) only when the energy model
// itself deliberately changes.

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/kernels"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

var update = flag.Bool("update", false, "regenerate golden fixtures from the current core")

const (
	goldenKey       = 0x133457799BBCDFF1
	goldenPlaintext = 0x0123456789ABCDEF
)

// traceHash digests a per-cycle trace: the exact float64 bit pattern of every
// cycle's energy plus the EX-stage PC, FNV-1a 64.
func traceHash(tr *trace.Trace) string {
	h := fnv.New64a()
	var buf [12]byte
	for i, v := range tr.Totals {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
		binary.LittleEndian.PutUint32(buf[8:], tr.PCs[i])
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cosimEntry is one (workload, policy) cell of the golden manifest.
type cosimEntry struct {
	Workload   string `json:"workload"`
	Policy     string `json:"policy"`
	Cycles     uint64 `json:"cycles"`
	Insts      uint64 `json:"insts"`
	SecureInst uint64 `json:"secure_inst"`
	// EnergyBits is the IEEE-754 bit pattern of the run's total energy (pJ),
	// so equality is exact rather than within-epsilon.
	EnergyBits string `json:"energy_bits"`
	TraceHash  string `json:"trace_hash"`
	Output     string `json:"output"`
}

func kernelInputs(name string) (secret, public []uint32) {
	switch name {
	case "tea":
		return []uint32{0x01234567, 0x89abcdef, 0xfedcba98, 0x76543210},
			[]uint32{0xdeadbeef, 0xcafebabe}
	case "aes128":
		secret = make([]uint32, 16)
		for i := range secret {
			secret[i] = uint32(i)
		}
		return secret, []uint32{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
			0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	case "sha1":
		// Standard IV plus the padded "abc" block.
		iv := []uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
		block := make([]uint32, 16)
		block[0] = 0x61626380
		block[15] = 24
		return iv, block
	}
	panic("unknown kernel " + name)
}

func formatWords(words []uint32) string {
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = fmt.Sprintf("%08x", w)
	}
	return strings.Join(parts, " ")
}

// runCell produces the golden entry for one (workload, policy) pair.
func runCell(t *testing.T, workload string, policy compiler.Policy) cosimEntry {
	t.Helper()
	entry := cosimEntry{Workload: workload, Policy: policy.String()}
	if workload == "des" {
		m, err := desprog.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		tr, cipher, stats, err := m.TraceRun(goldenKey, goldenPlaintext)
		if err != nil {
			t.Fatal(err)
		}
		entry.Cycles = stats.Cycles
		entry.Insts = stats.Insts
		entry.SecureInst = stats.SecureInst
		entry.EnergyBits = fmt.Sprintf("%016x", math.Float64bits(stats.Energy.Total))
		entry.TraceHash = traceHash(tr)
		entry.Output = fmt.Sprintf("%016x", cipher)
		return entry
	}
	var k kernels.Kernel
	switch workload {
	case "tea":
		k = kernels.TEA()
	case "aes128":
		k = kernels.AES128()
	case "sha1":
		k = kernels.SHA1()
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	m, err := kernels.BuildSimple(k, policy)
	if err != nil {
		t.Fatal(err)
	}
	secret, public := kernelInputs(workload)
	job, err := m.Job(secret, public, true)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Runner().Run(job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Done {
		t.Fatalf("%s/%s did not complete", workload, policy)
	}
	entry.Cycles = res.Stats.Cycles
	entry.Insts = res.Stats.Insts
	entry.SecureInst = res.Stats.SecureInst
	entry.EnergyBits = fmt.Sprintf("%016x", math.Float64bits(res.Stats.Energy.Total))
	entry.TraceHash = traceHash(res.Trace)
	entry.Output = formatWords(res.Mem[0])
	return entry
}

// TestGoldenCosim locks every policy x workload cell (ciphertext, cycle
// count, exact total energy, per-cycle trace digest) to the pre-refactor
// core's output.
func TestGoldenCosim(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", "golden_cosim.json")
	var entries []cosimEntry
	for _, workload := range []string{"des", "tea", "aes128", "sha1"} {
		for _, policy := range compiler.Policies() {
			entries = append(entries, runCell(t, workload, policy))
		}
	}
	if *update {
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(entries))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden manifest (run with -update to generate): %v", err)
	}
	var want []cosimEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(entries) {
		t.Fatalf("golden manifest has %d entries, produced %d", len(want), len(entries))
	}
	for i, w := range want {
		if entries[i] != w {
			t.Errorf("%s/%s diverged from golden core:\n got  %+v\n want %+v",
				w.Workload, w.Policy, entries[i], w)
		}
	}
}

// TestGoldenDESRoundTrace locks the full-precision per-cycle energy trace of
// DES round 1 under selective masking: every sample must match the checked-in
// fixture to the bit (hex float64), and the round must start and end on the
// same cycles.
func TestGoldenDESRoundTrace(t *testing.T) {
	path := filepath.Join("testdata", "golden_des_round1_selective.txt")
	m, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Trace(goldenKey, goldenPlaintext)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.RoundWindow(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# DES round 1, policy=selective key=%016x plaintext=%016x\n",
		uint64(goldenKey), uint64(goldenPlaintext))
	fmt.Fprintf(&b, "# window %d %d of %d cycles; columns: exec_pc energy_pj(hexfloat)\n",
		w.Start, w.End, tr.Len())
	for i := w.Start; i < w.End; i++ {
		fmt.Fprintf(&b, "%08x %s\n", tr.PCs[i], strconv.FormatFloat(tr.Totals[i], 'x', -1, 64))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cycles)", path, w.Len())
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to generate): %v", err)
	}
	if got != string(data) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(data), "\n")
		for i := range wantLines {
			if i >= len(gotLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("trace diverges from golden core at line %d:\n got  %q\n want %q\n(got %d lines, want %d)",
					i+1, line(gotLines, i), wantLines[i], len(gotLines), len(wantLines))
			}
		}
		t.Fatalf("trace has %d extra lines over golden fixture", len(gotLines)-len(wantLines))
	}
}

func line(v []string, i int) string {
	if i < len(v) {
		return v[i]
	}
	return "<missing>"
}

// encryptBatch encrypts every plaintext under key in one batch with full
// trace capture, trace i under the mask seed sim.DeriveSeed(0, i).
func encryptBatch(t *testing.T, m *desprog.Machine, key uint64, plaintexts []uint64, opts sim.Options) ([]sim.Result, error) {
	t.Helper()
	jobs := make([]sim.Job, len(plaintexts))
	for i, pt := range plaintexts {
		job, err := m.EncryptJobSeeded(key, pt, sim.DeriveSeed(0, i), 0, true)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	return m.Runner().RunBatch(jobs, opts)
}

// goldenEntry loads one (workload, policy) cell of the golden manifest, if
// the manifest exists.
func goldenEntry(t *testing.T, workload, policy string) (cosimEntry, bool) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_cosim.json"))
	if err != nil {
		return cosimEntry{}, false
	}
	var entries []cosimEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Workload == workload && e.Policy == policy {
			return e, true
		}
	}
	return cosimEntry{}, false
}

// TestGoldenBatchMatchesGolden re-runs one golden cell through RunBatch to
// tie the batch path to the same fixture (worker pooling must not perturb
// traces).
func TestGoldenBatchMatchesGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_cosim.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("golden manifest not generated yet: %v", err)
	}
	var want []cosimEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	m, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	results, err := encryptBatch(t, m, goldenKey, []uint64{goldenPlaintext, goldenPlaintext}, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if w.Workload != "des" || w.Policy != compiler.PolicySelective.String() {
			continue
		}
		for i, r := range results {
			if got := traceHash(r.Trace); got != w.TraceHash {
				t.Errorf("batch job %d trace hash %s, want golden %s", i, got, w.TraceHash)
			}
		}
		return
	}
	t.Fatal("no des/selective entry in golden manifest")
}
