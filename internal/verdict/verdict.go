// Package verdict is the one front door from an assessment request to a
// ready TVLA workload. Build takes the validated parameter surface that CLI
// flags, leakd request JSON and job IDs share (cliconf.ResolvedAssess),
// compiles the DES program, a built-in kernel or a submitted MiniC source
// (through a program cache the caller may pass), builds the fixed-vs-random
// population and locates the assessment window with its truncation flag.
// cmd/tvla, leakd and the experiments tables all build their workloads
// here; each then runs the statistic itself (leakstat.Assess,
// AssessContext, or leakd's sharded path).
package verdict

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"desmask/internal/asm"
	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
	"desmask/internal/leakcheck"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
)

// Custom is a submitted MiniC program, assessed in place of a built-in
// workload; leakd requests carry it in these JSON fields. Its
// secure-annotated secret global, public input global and output global
// must be named, and it must define an emit_output function bounding the
// masked region. Secret and Public are the fixed-population input words.
type Custom struct {
	Source       string   `json:"source,omitempty"`
	SecretGlobal string   `json:"secret_global,omitempty"`
	PublicGlobal string   `json:"public_global,omitempty"`
	OutputGlobal string   `json:"output_global,omitempty"`
	OutputLen    int      `json:"output_len,omitempty"`
	Secret       []uint32 `json:"secret,omitempty"`
	Public       []uint32 `json:"public,omitempty"`
}

// Request is one workload to build.
type Request struct {
	// Params is the validated assessment. For a Custom program its Kernel
	// and Vary are ignored.
	Params *cliconf.ResolvedAssess
	// Optimize compiles with the taint-sound optimizing pass pipeline
	// (maskcc -O).
	Optimize bool
	// Custom, when non-nil, is the program to assess instead of
	// Params.Kernel.
	Custom *Custom
}

// Workload is a ready-to-assess population: the built machine, its trace
// source, and the leakstat configuration with the window filled in.
type Workload struct {
	// Name is "des", the kernel name, or "custom" for a submitted program.
	Name string
	// DES is the built machine of the DES workload; Kernel that of every
	// other program. Exactly one is set.
	DES    *desprog.Machine
	Kernel *kernels.Machine
	// Source draws the fixed-vs-random population.
	Source leakstat.Source
	// Region is the assessment window and whether the cycle budget cut the
	// region it stands for short.
	Region leakstat.Region
	// Vary names what differs between the populations: the DES "key" or
	// "plaintext", and "secret" for every other program.
	Vary string
	// Config is the statistic's configuration, Window included.
	Config leakstat.Config
	// CacheHit reports that the program came from the cache (including an
	// entry another request was still building).
	CacheHit bool
	// Compile is the compile time when this call built the program (0 on
	// a cache hit); Window is the time spent locating the window.
	Compile, Window time.Duration

	// secretWords is the length of the secret input the taint check
	// taints.
	secretWords int
}

// Build compiles (or fetches from cache) the request's program, builds its
// population and locates its window. A nil cache compiles every time. The
// context is threaded through the cache wait, the compile and the window
// probe, so an expired request stops at the next stage boundary with the
// context's error.
func Build(ctx context.Context, req Request, cache *Cache) (*Workload, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := req.Params
	opt := r.CompilerOptions()
	opt.Optimize = req.Optimize
	w := &Workload{Name: r.Kernel, Vary: "secret", Config: r.Config()}

	var k kernels.Kernel
	switch {
	case req.Custom != nil:
		c := req.Custom
		w.Name = "custom"
		k = kernels.Kernel{Name: "custom", Source: c.Source, SecretGlobal: c.SecretGlobal,
			PublicGlobal: c.PublicGlobal, OutputGlobal: c.OutputGlobal, OutputLen: c.OutputLen}
	case r.Kernel != "des":
		k, _ = kernels.ByName(r.Kernel) // Validate admits only built-ins
	}
	v, hit, err := cache.getOrBuild(ctx, cacheKeyFor(req), func() (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		var (
			m   interface{ Runner() *sim.Runner }
			err error
		)
		if k.Name == "" {
			m, err = desprog.NewFull(opt, energy.DefaultConfig())
		} else {
			m, err = kernels.Build(k, opt, energy.DefaultConfig())
		}
		if err != nil {
			return nil, err
		}
		w.Compile = time.Since(start)
		if cache != nil && cache.gang != nil {
			m.Runner().GangCounts = cache.gang
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	w.CacheHit = hit

	winStart := time.Now()
	switch m := v.(type) {
	case *desprog.Machine:
		w.DES, w.Vary, w.secretWords = m, r.Vary, 64
		if r.Vary == "plaintext" {
			w.Source = leakstat.DESPlaintextSource(m, r.KeyV, r.PlaintextV, r.Seed, r.MaxCycles)
			w.Region, err = leakstat.DESRound1WindowContext(ctx, m, r.KeyV, r.PlaintextV, r.MaxCycles)
		} else {
			w.Source = leakstat.DESKeySource(m, r.KeyV, r.PlaintextV, r.Seed, r.MaxCycles)
			w.Region, err = leakstat.DESMaskedWindowContext(ctx, m, r.KeyV, r.PlaintextV, r.MaxCycles)
		}
	case *kernels.Machine:
		w.Kernel = m
		var (
			secret, public []uint32
			mask           = uint32(0xffffffff)
		)
		if c := req.Custom; c != nil {
			secret, public = c.Secret, c.Public
		} else {
			secret, public, mask = kernels.TVLAInputs(k)
		}
		w.secretWords = len(secret)
		w.Region, err = leakstat.KernelMaskedWindowContext(ctx, m, secret, public, r.MaxCycles)
		w.Source = leakstat.KernelSecretSource(m, secret, public, mask, r.Seed, r.MaxCycles)
	}
	if err != nil {
		return nil, err
	}
	w.Window = time.Since(winStart)
	w.Config.Window = w.Region.Window
	return w, nil
}

// cacheKeyFor derives the program-cache key: built-in workloads are keyed by
// name, submitted source by its SHA-256 (plus the globals that shape the
// program), and both by policy, ISA, optimize and shuffle.
func cacheKeyFor(req Request) cacheKey {
	r := req.Params
	src := "workload:" + r.Kernel
	if c := req.Custom; c != nil {
		h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%d",
			c.Source, c.SecretGlobal, c.PublicGlobal, c.OutputGlobal, c.OutputLen)))
		src = fmt.Sprintf("sha256:%x", h)
	}
	return cacheKey{Source: src, Policy: r.PolicyV.String(), ISA: r.TargetV.Name(),
		Optimize: req.Optimize, Shuffle: r.ShuffleV}
}

// TaintLeakSites runs the dynamic taint check on the workload's program,
// with its secret input tainted, and counts the leak sites outside
// declassification: instruction addresses where an insecure operation
// processed secret-derived data. A sound policy has none.
func (w *Workload) TaintLeakSites() (int, error) {
	var (
		prog   *asm.Program
		global string
		lo, hi uint32
	)
	if w.DES != nil {
		prog, global = w.DES.Res.Program, "key"
		lo, hi = w.DES.DeclassRegion()
	} else {
		prog, global = w.Kernel.Res.Program, w.Kernel.Kernel.SecretGlobal
		lo, hi = w.Kernel.DeclassRegion()
	}
	addr, ok := prog.Symbols[compiler.GlobalLabel(global)]
	if !ok {
		return 0, fmt.Errorf("no %s global", global)
	}
	rep, err := leakcheck.CheckProgram(prog, []leakcheck.TaintRange{{Addr: addr, Words: w.secretWords}})
	if err != nil {
		return 0, err
	}
	return len(rep.LeaksOutsideRegion(lo, hi)), nil
}
