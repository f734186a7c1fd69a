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
	"sync"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/harness"
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
	// machine is the compiled program DES or Kernel embeds.
	machine *harness.Machine
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
// context's error. A cached program also keeps the windows located on it:
// a repeat request skips the probe.
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
		p := &program{}
		var err error
		if k.Name == "" {
			if p.des, err = desprog.NewFull(opt, energy.DefaultConfig()); err == nil {
				p.m = &p.des.Machine
			}
		} else if p.kernel, err = kernels.Build(k, opt, energy.DefaultConfig()); err == nil {
			p.m = &p.kernel.Machine
		}
		if err != nil {
			return nil, err
		}
		w.Compile = time.Since(start)
		if cache != nil && cache.gang != nil {
			p.m.Runner().GangCounts = cache.gang
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	w.CacheHit = hit
	prog := v.(*program)
	w.DES, w.Kernel, w.machine = prog.des, prog.kernel, prog.m

	winStart := time.Now()
	rk := regionKey{maxCycles: r.MaxCycles}
	// masked locates the masked region on a probe run of the fixed
	// population's job.
	masked := func(job sim.Job, err error) (leakstat.Region, error) {
		if err != nil {
			return leakstat.Region{}, err
		}
		return leakstat.MaskedWindowContext(ctx, w.machine, job, r.MaxCycles)
	}
	var probe func() (leakstat.Region, error)
	if m := w.DES; m != nil {
		w.Vary, w.secretWords = r.Vary, 64
		rk.vary, rk.key, rk.plaintext = r.Vary, r.KeyV, r.PlaintextV
		source := leakstat.DESKeySource
		probe = func() (leakstat.Region, error) { return masked(m.EncryptJob(r.KeyV, r.PlaintextV, 0, true)) }
		if r.Vary == "plaintext" {
			source = leakstat.DESPlaintextSource
			probe = func() (leakstat.Region, error) {
				return leakstat.DESRound1WindowContext(ctx, m, r.KeyV, r.PlaintextV, r.MaxCycles)
			}
		}
		w.Source = source(m, r.KeyV, r.PlaintextV, r.Seed, r.MaxCycles)
	} else {
		m := w.Kernel
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
		rk.inputs = fmt.Sprint(secret, public)
		w.Source = leakstat.KernelSecretSource(m, secret, public, mask, r.Seed, r.MaxCycles)
		probe = func() (leakstat.Region, error) { return masked(m.Job(secret, public, true)) }
	}
	if w.Region, err = prog.region(rk, probe); err != nil {
		return nil, err
	}
	w.Window = time.Since(winStart)
	w.Config.Window = w.Region.Window
	return w, nil
}

// maxRegions bounds the windows a cached program keeps.
const maxRegions = 8

// program is a cache entry's value: the built machine and the windows
// located on it. A window is a pure function of the machine, the
// population's fixed inputs and the cycle budget, so a repeat request
// reuses it instead of running the traced probe again.
type program struct {
	// m is the compiled program of whichever of des and kernel is set.
	m      *harness.Machine
	des    *desprog.Machine
	kernel *kernels.Machine

	mu      sync.Mutex
	regions map[regionKey]leakstat.Region
}

// regionKey is what a window depends on besides the program: the DES
// population variable and fixed inputs, or a kernel's fixed secret and
// public words, and the cycle budget.
type regionKey struct {
	vary           string
	key, plaintext uint64
	inputs         string
	maxCycles      uint64
}

// region returns the window of k, running probe only when the program
// keeps none. It keeps what probe finds, not a failure, and drops every
// kept window once it holds maxRegions.
func (p *program) region(k regionKey, probe func() (leakstat.Region, error)) (leakstat.Region, error) {
	p.mu.Lock()
	reg, ok := p.regions[k]
	p.mu.Unlock()
	if ok {
		return reg, nil
	}
	reg, err := probe()
	if err != nil {
		return reg, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.regions == nil || len(p.regions) >= maxRegions {
		p.regions = make(map[regionKey]leakstat.Region)
	}
	p.regions[k] = reg
	return reg, nil
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
	m := w.machine
	addr, ok := m.Res.Program.Symbols[compiler.GlobalLabel(m.Secret)]
	if !ok {
		return 0, fmt.Errorf("no %s global", m.Secret)
	}
	rep, err := leakcheck.CheckProgram(m.Res.Program, []leakcheck.TaintRange{{Addr: addr, Words: w.secretWords}})
	if err != nil {
		return 0, err
	}
	lo, hi := m.DeclassRegion()
	return len(rep.LeaksOutsideRegion(lo, hi)), nil
}
