// Package cliconf centralizes the parameter surface shared by the
// command-line tools and the leakd service. The window/workers knobs
// used to be parsed (and bounds-checked) independently by cmd/tvla,
// cmd/leakcheck and cmd/desenc; they are defined once here, so a parameter
// accepted by a CLI flag and the same parameter arriving in a leakd HTTP
// request pass through identical validation.
package cliconf

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"desmask/internal/compiler"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/leakstat"
)

// ParseISA resolves an ISA backend name; the error lists the valid names.
// An empty name resolves to the default PISA target.
func ParseISA(name string) (isa.Target, error) {
	if name == "" {
		return isa.PISA, nil
	}
	t, ok := isa.TargetByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown isa %q (want %s)", name, strings.Join(isa.Targets(), " | "))
	}
	return t, nil
}

// ParseHex64 parses a 64-bit hex value (no 0x prefix), naming the parameter
// in the error.
func ParseHex64(name, s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: must be up to 16 hex digits", name, s)
	}
	return v, nil
}

// FieldError is a validation failure pinned to one request field, carrying
// the allowed values: the CLI renders it as usage text and leakd as a
// structured 400 body ({"error", "field", "allowed"}) instead of a bare
// string.
type FieldError struct {
	// Field names the offending parameter in request-JSON spelling
	// (e.g. "policy", "protection.mask_order", "attack.stat").
	Field string
	// Value is the rejected value as submitted.
	Value string
	// Allowed lists the accepted values, when enumerable.
	Allowed []string
	// Reason, when set, replaces "unknown": why a well-formed value failed.
	Reason string
}

// Error renders the failure with its allowed values.
func (e *FieldError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("%s %s: %s", e.Field, e.Value, e.Reason)
	}
	msg := fmt.Sprintf("unknown %s %q", e.Field, e.Value)
	if len(e.Allowed) > 0 {
		msg += fmt.Sprintf(" (want %s)", strings.Join(e.Allowed, " | "))
	}
	return msg
}

// PolicyNames lists every protection-policy name the compiler accepts, in
// increasing protection-cost order — the single source for flag usage,
// validation errors and the structured 400 body.
func PolicyNames() []string {
	names := make([]string, 0, len(compiler.Policies()))
	for _, p := range compiler.Policies() {
		names = append(names, p.String())
	}
	return names
}

// ParsePolicy resolves a protection-policy name; the error lists the valid
// names (every compiler policy, including boolean-mask).
func ParsePolicy(name string) (compiler.Policy, error) {
	for _, p := range compiler.Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, &FieldError{Field: "policy", Value: name, Allowed: PolicyNames()}
}

// PolicyUsage renders the valid policy names for flag usage strings.
func PolicyUsage() string {
	return strings.Join(PolicyNames(), " | ")
}

// AttackStats are the distinguishers the attack object accepts: "tvla" is
// the fixed-vs-random Welch t-test assessment (leakstat), "cpa" the key-
// recovery correlation attack and "dom" the Kocher difference-of-means attack
// (both internal/dpa, cmd/dpa-attack). Order selects first-order statistics
// (means) or second-order (centered second moments / centered squares), the
// statistic that breaks first-order boolean masking; dom is first-order only.
var AttackStats = []string{"tvla", "cpa", "dom"}

// Protection is the structured countermeasure selector shared verbatim by
// CLI flags, leakd request JSON and the jobstore idempotency key: which
// compiler policy, what masking order, and whether operand shuffling is
// layered on. The flat legacy `policy` string remains accepted; see
// (Assess).Normalize for how the two spellings canonicalize to one job.
type Protection struct {
	// Policy is the compiler protection policy name (see PolicyNames).
	Policy string `json:"policy"`
	// MaskOrder is the masking order: 0 = the policy's natural order (1 for
	// boolean-mask, 0 otherwise), 1 = first-order boolean masking (requires
	// the boolean-mask policy). Higher orders are not implemented.
	MaskOrder int `json:"mask_order,omitempty"`
	// Shuffle layers the operand-shuffling countermeasure on: `shuffle for`
	// loops run their independent iterations in a fresh random order per
	// execution.
	Shuffle bool `json:"shuffle,omitempty"`
}

// Attack is the structured distinguisher selector: which statistic and at
// what order it attacks the traces.
type Attack struct {
	// Stat is "tvla" (leakage assessment), "cpa" (key-recovery correlation)
	// or "dom" (key-recovery difference of means).
	Stat string `json:"stat"`
	// Order is 1 (first-order means) or 2 (second-order centered moments);
	// 0 means 1.
	Order int `json:"order,omitempty"`
}

// KernelNames are the built-in workload names an assessment accepts.
var KernelNames = []string{"des", "aes128", "tea", "sha1"}

// validKernel reports whether name is a built-in workload.
func validKernel(name string) bool {
	for _, k := range KernelNames {
		if k == name {
			return true
		}
	}
	return false
}

// Assess is the canonical parameter set of one leakage assessment — the
// exact surface cmd/tvla exposes as flags and leakd accepts as JSON. Zero
// values mean "use the default" wherever a default exists.
type Assess struct {
	// Kernel is the workload: des, aes128, tea or sha1.
	Kernel string `json:"kernel"`
	// Policy is the flat legacy protection selector: a bare policy name.
	// Requests may use Protection instead; when both are present they must
	// agree on the policy.
	Policy string `json:"policy"`
	// Protection is the structured countermeasure selector. nil means "use
	// Policy with no extra countermeasures" — the legacy spelling.
	Protection *Protection `json:"protection,omitempty"`
	// Attack is the structured distinguisher selector. nil means first-order
	// TVLA — the legacy behavior.
	Attack *Attack `json:"attack,omitempty"`
	// ISA is the target backend name (empty = pisa).
	ISA string `json:"isa,omitempty"`
	// Vary selects the DES population variable: key or plaintext. Non-DES
	// kernels always vary the secret.
	Vary string `json:"vary"`
	// Traces is the total trace count across both populations.
	Traces int `json:"traces"`
	// Seed drives group assignment and random input derivation.
	Seed int64 `json:"seed"`
	// Workers sizes the shard worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// Shards is the fixed population partition (0 = leakstat default).
	Shards int `json:"shards"`
	// Gang is the lockstep gang width: each shard's traces run in gangs of
	// up to Gang lanes through the gang-scheduled engine, 0 uses
	// leakstat.DefaultGang and 1 runs one lane at a time. A pure throughput
	// knob — the verdict is bit-identical for any value. Leaving it unset
	// keeps it out of a request's canonical form and job ID.
	Gang int `json:"gang,omitempty"`
	// Threshold is the |t| decision threshold (0 = leakstat default).
	Threshold float64 `json:"threshold"`
	// MaxCycles is the per-trace cycle budget (0 = full run); assessment
	// windows are clamped to it, and a report says when that cut the
	// assessed region short.
	MaxCycles uint64 `json:"max_cycles"`
	// Key is the fixed DES key, hex.
	Key string `json:"key"`
	// Plaintext is the DES plaintext, hex.
	Plaintext string `json:"plaintext"`
}

// DefaultAssess returns the defaults shared by cmd/tvla and leakd.
func DefaultAssess() Assess {
	return Assess{
		Kernel:    "des",
		Policy:    "selective",
		Vary:      "key",
		Traces:    1000,
		Seed:      7,
		MaxCycles: 25_000,
		Key:       "133457799BBCDFF1",
		Plaintext: "0123456789ABCDEF",
	}
}

// AddFlags registers the assessment parameters on a flag set, using the
// receiver's current values as defaults.
func (a *Assess) AddFlags(fs *flag.FlagSet) {
	if a.Protection == nil {
		a.Protection = &Protection{}
	}
	if a.Attack == nil {
		a.Attack = &Attack{}
	}
	fs.StringVar(&a.Kernel, "kernel", a.Kernel, "workload: "+strings.Join(KernelNames, ", "))
	fs.StringVar(&a.Policy, "policy", a.Policy, "protection policy: "+PolicyUsage())
	fs.IntVar(&a.Protection.MaskOrder, "mask-order", a.Protection.MaskOrder,
		"masking order (0 = the policy's natural order; 1 requires -policy boolean-mask)")
	fs.BoolVar(&a.Protection.Shuffle, "shuffle", a.Protection.Shuffle,
		"layer the operand-shuffling countermeasure on (fresh iteration order per execution)")
	fs.IntVar(&a.Attack.Order, "order", a.Attack.Order,
		"attack order: 1 = first-order statistics, 2 = second-order (centered second moments); 0 = 1")
	fs.StringVar(&a.ISA, "isa", a.ISA, "target ISA backend: "+isa.TargetUsage())
	fs.StringVar(&a.Vary, "vary", a.Vary, "DES population variable: key or plaintext")
	fs.IntVar(&a.Traces, "traces", a.Traces, "total traces across both populations")
	fs.Int64Var(&a.Seed, "seed", a.Seed, "seed for group assignment and random inputs")
	fs.IntVar(&a.Workers, "workers", a.Workers, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&a.Shards, "shards", a.Shards, "fixed shard partition (0 = default 32)")
	fs.IntVar(&a.Gang, "gang", a.Gang, "lockstep gang width (0 = default: 16 lanes; 1 = one lane; the result is identical either way)")
	fs.Float64Var(&a.Threshold, "threshold", a.Threshold, "|t| decision threshold (0 = 4.5)")
	fs.Uint64Var(&a.MaxCycles, "max", a.MaxCycles, "cycle budget per trace (0 = full run; the window is clamped to it, with a warning when that cuts the region short)")
	fs.StringVar(&a.Key, "key", a.Key, "fixed DES key (hex)")
	fs.StringVar(&a.Plaintext, "plaintext", a.Plaintext, "DES plaintext (hex)")
}

// ResolvedAssess is a validated assessment parameter set with the
// string-encoded fields parsed.
type ResolvedAssess struct {
	Assess
	// PolicyV is the resolved protection policy.
	PolicyV compiler.Policy
	// ShuffleV reports the operand-shuffling countermeasure is on.
	ShuffleV bool
	// MaskOrderV is the effective masking order (1 for boolean-mask, else 0).
	MaskOrderV int
	// StatV is the resolved attack statistic ("tvla" or "cpa").
	StatV string
	// OrderV is the resolved attack order (1 or 2).
	OrderV int
	// TargetV is the resolved ISA backend (never nil; pisa when unset).
	TargetV isa.Target
	// KeyV and PlaintextV are the parsed 64-bit DES inputs.
	KeyV, PlaintextV uint64
}

// CompilerOptions assembles the compilation knobs of the resolved protection
// (policy, shuffling, target); callers add Optimize themselves.
func (r *ResolvedAssess) CompilerOptions() compiler.Options {
	return compiler.Options{Policy: r.PolicyV, Target: r.TargetV, Shuffle: r.ShuffleV}
}

// Validate normalizes and checks the parameter set; exactly the same rules
// gate a CLI invocation and a leakd request. The window is not part of this
// surface — it is derived from the workload by the caller.
func (a Assess) Validate() (*ResolvedAssess, error) {
	r := &ResolvedAssess{Assess: a}
	if r.Kernel == "" {
		r.Kernel = "des"
	}
	if !validKernel(r.Kernel) {
		return nil, fmt.Errorf("unknown kernel %q (want %s)", r.Kernel, strings.Join(KernelNames, ", "))
	}
	if r.Kernel != "des" {
		if _, ok := kernels.ByName(r.Kernel); !ok {
			return nil, fmt.Errorf("unknown kernel %q", r.Kernel)
		}
	}
	// Protection: the structured object wins; an empty object inherits the
	// flat Policy field, and a conflicting pair is rejected rather than
	// silently preferring one spelling.
	policyName := r.Policy
	if p := r.Protection; p != nil {
		if p.Policy != "" {
			if r.Policy != "" && r.Policy != p.Policy {
				return nil, fmt.Errorf("policy %q and protection.policy %q conflict", r.Policy, p.Policy)
			}
			policyName = p.Policy
		}
		r.ShuffleV = p.Shuffle
	}
	var err error
	if r.PolicyV, err = ParsePolicy(policyName); err != nil {
		return nil, err
	}
	r.MaskOrderV = 0
	if r.PolicyV == compiler.PolicyBooleanMask {
		r.MaskOrderV = 1
	}
	if p := r.Protection; p != nil && p.MaskOrder != 0 {
		if p.MaskOrder < 0 || p.MaskOrder > 1 {
			return nil, &FieldError{Field: "protection.mask_order",
				Value: strconv.Itoa(p.MaskOrder), Allowed: []string{"0", "1"}}
		}
		if r.PolicyV != compiler.PolicyBooleanMask {
			return nil, fmt.Errorf("protection.mask_order %d requires the boolean-mask policy, not %q",
				p.MaskOrder, r.PolicyV)
		}
	}
	// Attack: nil means first-order TVLA, exactly the legacy behavior.
	r.StatV, r.OrderV = "tvla", 1
	if at := r.Attack; at != nil {
		switch at.Stat {
		case "", "tvla", "cpa", "dom":
			if at.Stat != "" {
				r.StatV = at.Stat
			}
		default:
			return nil, &FieldError{Field: "attack.stat", Value: at.Stat, Allowed: AttackStats}
		}
		switch at.Order {
		case 0, 1, 2:
			if at.Order != 0 {
				r.OrderV = at.Order
			}
		default:
			return nil, &FieldError{Field: "attack.order",
				Value: strconv.Itoa(at.Order), Allowed: []string{"1", "2"}}
		}
		if r.StatV == "dom" && r.OrderV != 1 {
			return nil, fmt.Errorf("attack.stat dom is first-order only; use stat cpa with order 2 for the second-order attack")
		}
	}
	if r.TargetV, err = ParseISA(r.ISA); err != nil {
		return nil, err
	}
	r.ISA = r.TargetV.Name()
	switch r.Vary {
	case "", "key":
		r.Vary = "key"
	case "plaintext":
		if r.Kernel != "des" {
			return nil, fmt.Errorf("-vary plaintext is DES-only; kernel populations always vary the secret")
		}
	default:
		return nil, fmt.Errorf("unknown vary %q (want key or plaintext)", r.Vary)
	}
	if r.Traces < 4 {
		return nil, fmt.Errorf("need at least 4 traces (2 per population), got %d", r.Traces)
	}
	if r.Workers < 0 {
		return nil, fmt.Errorf("workers must be >= 0, got %d", r.Workers)
	}
	if r.Shards < 0 {
		return nil, fmt.Errorf("shards must be >= 0, got %d", r.Shards)
	}
	if r.Gang < 0 {
		return nil, fmt.Errorf("gang must be >= 0, got %d", r.Gang)
	}
	if r.Threshold < 0 {
		return nil, fmt.Errorf("threshold must be >= 0, got %v", r.Threshold)
	}
	if r.Key == "" {
		r.Key = DefaultAssess().Key
	}
	if r.Plaintext == "" {
		r.Plaintext = DefaultAssess().Plaintext
	}
	if r.KeyV, err = ParseHex64("key", r.Key); err != nil {
		return nil, err
	}
	if r.PlaintextV, err = ParseHex64("plaintext", r.Plaintext); err != nil {
		return nil, err
	}
	return r, nil
}

// Config assembles the leakstat configuration of the resolved parameters
// (the window is supplied by the caller once the workload is built).
func (r *ResolvedAssess) Config() leakstat.Config {
	return leakstat.Config{
		NumTraces: r.Traces,
		Seed:      r.Seed,
		Shards:    r.Shards,
		Workers:   r.Workers,
		Gang:      r.Gang,
		Threshold: r.Threshold,
		Order:     r.OrderV,
	}
}

// Normalize rewrites the parameter set into its canonical spelling: a
// structured Protection or Attack object that only restates legacy defaults
// (bare policy, no shuffle, natural mask order, first-order TVLA) is folded
// back into the flat fields it duplicates. Two requests that mean the same
// assessment — one legacy, one structured — normalize to identical values,
// which is what keeps their jobstore idempotency keys (and therefore their
// stored verdicts) shared. Call it only on parameter sets that Validate
// accepts; it does not itself validate.
func (a Assess) Normalize() Assess {
	if p := a.Protection; p != nil {
		if p.Policy != "" {
			a.Policy = p.Policy
		}
		naturalOrder := 0
		if a.Policy == compiler.PolicyBooleanMask.String() {
			naturalOrder = 1
		}
		if !p.Shuffle && (p.MaskOrder == 0 || p.MaskOrder == naturalOrder) {
			a.Protection = nil
		} else {
			cp := *p
			cp.Policy = a.Policy
			if cp.MaskOrder == naturalOrder {
				cp.MaskOrder = 0
			}
			a.Protection = &cp
		}
	}
	if at := a.Attack; at != nil {
		if (at.Stat == "" || at.Stat == "tvla") && at.Order <= 1 {
			a.Attack = nil
		} else {
			cp := *at
			if cp.Stat == "" {
				cp.Stat = "tvla"
			}
			if cp.Order == 0 {
				cp.Order = 1
			}
			a.Attack = &cp
		}
	}
	return a
}
