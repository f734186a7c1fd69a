// Package kernels carries additional cryptographic workloads for the
// masking system beyond DES — the paper's stated generalisation ("our
// approach is general and can be extended to other algorithms that need
// protection against current measurements based breaks"): TEA and AES-128,
// both written in MiniC with `secure`-annotated keys, compiled by the
// masking compiler and executed on the simulator, with Go reference
// implementations as oracles.
package kernels

import (
	"fmt"
	"sync"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/harness"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// Kernel is one MiniC workload.
type Kernel struct {
	// Name identifies the kernel ("tea", "aes128").
	Name string
	// Source is the MiniC program.
	Source string
	// SecretGlobal names the secure-annotated input array.
	SecretGlobal string
	// PublicGlobal names the public input array.
	PublicGlobal string
	// OutputGlobal names the output array and OutputLen its length.
	OutputGlobal string
	OutputLen    int
}

// Machine is a compiled kernel ready to run.
type Machine struct {
	Kernel Kernel
	Res    *compiler.Result
	Cfg    energy.Config

	runnerOnce sync.Once
	runner     *sim.Runner
	layout     *harness.Layout
	layoutErr  error // reported by every job, so Build itself never fails on it
}

// Build compiles the kernel under the given options and energy
// configuration.
func Build(k Kernel, opt compiler.Options, cfg energy.Config) (*Machine, error) {
	res, err := compiler.CompileWithOptions(k.Source, opt)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	layout, err := harness.Resolve(res,
		[]harness.Port{{Field: "secret", Global: k.SecretGlobal}, {Field: "public", Global: k.PublicGlobal}},
		harness.Port{Field: "output_len", Global: k.OutputGlobal}, k.OutputLen)
	return &Machine{Kernel: k, Res: res, Cfg: cfg, layout: layout, layoutErr: err}, nil
}

// BuildSimple compiles with a bare policy and the default energy model.
func BuildSimple(k Kernel, policy compiler.Policy) (*Machine, error) {
	return Build(k, compiler.Options{Policy: policy}, energy.DefaultConfig())
}

// MaxCycles bounds one kernel run.
const MaxCycles = 4_000_000

// Runner returns the kernel's simulation session (created on first use).
func (m *Machine) Runner() *sim.Runner {
	m.runnerOnce.Do(func() {
		m.runner = sim.NewRunner(m.Res.Program, m.Cfg)
		m.runner.MaxCycles = MaxCycles
	})
	return m.runner
}

// Job assembles the sim.Job of one kernel run: secret then public inputs
// poked into their global arrays (fixed order), output array read back. On
// masked/shuffled machines it delegates to JobSeeded with seed 0 —
// deterministic, but every job built this way reuses the same masks;
// statistics drivers must pass fresh per-trace seeds to JobSeeded.
func (m *Machine) Job(secret, public []uint32, capture bool) (sim.Job, error) {
	return m.JobSeeded(secret, public, 0, capture)
}

// JobSeeded is Job plus the masking/shuffling runtime state of one
// execution, derived from maskSeed by harness.Layout.Job; Reads[0] is the
// output array. An input or OutputLen past its global fails with a
// *harness.LengthError naming "secret", "public" or "output_len".
func (m *Machine) JobSeeded(secret, public []uint32, maskSeed int64, capture bool) (sim.Job, error) {
	err := m.layoutErr
	var job sim.Job
	if err == nil {
		job, err = m.layout.Job(maskSeed, secret, public)
	}
	if err != nil {
		return sim.Job{}, fmt.Errorf("kernels: %s: %w", m.Kernel.Name, err)
	}
	job.Trace = capture
	return job, nil
}

// output unpacks one job result into the kernel's (output, stats) shape. A
// budget expiry surfaces as a *cpu.CycleLimitError (matching
// cpu.ErrCycleLimit), distinguishable from program faults.
func (m *Machine) output(res sim.Result) ([]uint32, sim.Stats, error) {
	if res.Err != nil {
		return nil, res.Stats, fmt.Errorf("kernels: %s: %w", m.Kernel.Name, res.Err)
	}
	if !res.Done {
		return nil, res.Stats, fmt.Errorf("kernels: %s: %w", m.Kernel.Name, &cpu.CycleLimitError{Limit: MaxCycles})
	}
	return res.Mem[0], res.Stats, nil
}

// Run executes the kernel through the simulation session with the secret
// and public inputs poked into their global arrays, returning the output
// array and run statistics.
func (m *Machine) Run(secret, public []uint32) ([]uint32, sim.Stats, error) {
	job, err := m.Job(secret, public, false)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return m.output(m.Runner().Run(job))
}

// RunBatch executes one kernel run per public input under the same secret
// across the session's worker pool, returning results in input order.
func (m *Machine) RunBatch(secret []uint32, publics [][]uint32, capture bool, opts sim.Options) ([]sim.Result, error) {
	jobs := make([]sim.Job, len(publics))
	for i, pub := range publics {
		job, err := m.JobSeeded(secret, pub, sim.DeriveSeed(0, i), capture)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	return m.Runner().RunBatch(jobs, opts)
}

// Trace runs the kernel capturing the full per-cycle energy trace.
func (m *Machine) Trace(secret, public []uint32) ([]uint32, *trace.Trace, error) {
	job, err := m.Job(secret, public, true)
	if err != nil {
		return nil, nil, err
	}
	res := m.Runner().Run(job)
	out, _, err := m.output(res)
	if err != nil {
		return nil, nil, err
	}
	return out, res.Trace, nil
}

// TVLAInputs returns the kernel's canonical fixed TVLA population inputs —
// the fixed secret, the public input, and the word mask bounding random
// secret draws (0xff for aes128's byte-valued state, full words otherwise).
// The experiments tables, cmd/tvla and the leakd service all assess the
// same populations through this one definition.
func TVLAInputs(k Kernel) (secret, public []uint32, wordMask uint32) {
	secretLen, publicLen := 16, 16
	wordMask = uint32(0xffffffff)
	switch k.Name {
	case "aes128":
		wordMask = 0xff
	case "tea":
		secretLen, publicLen = 4, 2
	case "sha1":
		secretLen, publicLen = 5, 16
	}
	secret = make([]uint32, secretLen)
	public = make([]uint32, publicLen)
	for i := range secret {
		secret[i] = uint32(i+1) & wordMask
	}
	for i := range public {
		public[i] = uint32(i * 9)
	}
	return secret, public, wordMask
}

// ByName returns the named built-in kernel (tea, aes128, sha1).
func ByName(name string) (Kernel, bool) {
	switch name {
	case "tea":
		return TEA(), true
	case "aes128":
		return AES128(), true
	case "sha1":
		return SHA1(), true
	}
	return Kernel{}, false
}

// DeclassRegion returns the text range [lo, hi) that declassifies the
// kernel's output: emit_output, up to main. Taint leaks there are public by
// design; a sound policy leaks nowhere else.
func (m *Machine) DeclassRegion() (lo, hi uint32) {
	syms := m.Res.Program.Symbols
	return syms["f_emit_output"], syms["f_main"]
}

// MaskedRegionEnd returns the cycle at which the kernel's output emission
// begins — the end of the region that must be energy-flat across secrets.
// It is located as the first EX occurrence of the output function's entry.
func (m *Machine) MaskedRegionEnd(tr *trace.Trace) (int, error) {
	entry, ok := m.Res.Program.Symbols["f_emit_output"]
	if !ok {
		return 0, fmt.Errorf("kernels: %s: kernel lacks an emit_output function", m.Kernel.Name)
	}
	for i, pc := range tr.PCs {
		if pc == entry {
			return i, nil
		}
	}
	return tr.Len(), nil
}
