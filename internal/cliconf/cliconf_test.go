package cliconf

import (
	"flag"
	"strings"
	"testing"

	"desmask/internal/compiler"
)

func TestParseHex64(t *testing.T) {
	v, err := ParseHex64("key", "133457799BBCDFF1")
	if err != nil || v != 0x133457799BBCDFF1 {
		t.Fatalf("got %x, %v", v, err)
	}
	for _, bad := range []string{"", "xyz", "11223344556677889"} {
		if _, err := ParseHex64("key", bad); err == nil {
			t.Fatalf("ParseHex64 accepted %q", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy("selective")
	if err != nil || p != compiler.PolicySelective {
		t.Fatalf("got %v, %v", p, err)
	}
	if _, err := ParsePolicy("nope"); err == nil || !strings.Contains(err.Error(), "selective") {
		t.Fatalf("error should list valid names, got %v", err)
	}
}

func TestParseISA(t *testing.T) {
	for name, want := range map[string]string{
		"": "pisa", "pisa": "pisa", "PISA": "pisa", "rv32": "rv32", "RV32": "rv32",
	} {
		tg, err := ParseISA(name)
		if err != nil || tg.Name() != want {
			t.Fatalf("ParseISA(%q) = %v, %v; want %s", name, tg, err, want)
		}
	}
	_, err := ParseISA("mips64")
	if err == nil || !strings.Contains(err.Error(), "pisa") || !strings.Contains(err.Error(), "rv32") {
		t.Fatalf("error should list valid backends, got %v", err)
	}
}

// TestAssessFlagsRoundTrip: the flag surface and the struct are the same
// thing — values set via flags land in the struct and validate.
func TestAssessFlagsRoundTrip(t *testing.T) {
	a := DefaultAssess()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.AddFlags(fs)
	err := fs.Parse([]string{
		"-kernel", "aes128", "-policy", "all-secure", "-traces", "64",
		"-seed", "3", "-workers", "2", "-shards", "8", "-max", "9000",
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if r.Kernel != "aes128" || r.PolicyV != compiler.PolicyAllSecure || r.Traces != 64 {
		t.Fatalf("resolved %+v", r)
	}
	cfg := r.Config()
	if cfg.NumTraces != 64 || cfg.Seed != 3 || cfg.Workers != 2 || cfg.Shards != 8 {
		t.Fatalf("config %+v", cfg)
	}
}

// TestAssessValidation is the contract the leakd request schema relies on:
// the same rules reject bad CLI flags and bad HTTP parameters.
func TestAssessValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Assess)
		want string
	}{
		{"bad kernel", func(a *Assess) { a.Kernel = "des3" }, "unknown kernel"},
		{"bad policy", func(a *Assess) { a.Policy = "paranoid" }, "unknown policy"},
		{"bad isa", func(a *Assess) { a.ISA = "arm64" }, "unknown isa"},
		{"bad isa valid policy", func(a *Assess) { a.Policy, a.ISA = "all-secure", "riscv" }, "unknown isa"},
		{"bad policy valid isa", func(a *Assess) { a.Policy, a.ISA = "paranoid", "rv32" }, "unknown policy"},
		{"bad isa on kernel", func(a *Assess) { a.Kernel, a.ISA = "tea", "x86" }, "unknown isa"},
		{"bad vary", func(a *Assess) { a.Vary = "rounds" }, "unknown vary"},
		{"vary plaintext non-des", func(a *Assess) { a.Kernel, a.Vary = "tea", "plaintext" }, "DES-only"},
		{"too few traces", func(a *Assess) { a.Traces = 3 }, "at least 4 traces"},
		{"negative workers", func(a *Assess) { a.Workers = -1 }, "workers"},
		{"negative shards", func(a *Assess) { a.Shards = -2 }, "shards"},
		{"bad key", func(a *Assess) { a.Key = "zz" }, "bad key"},
		{"bad plaintext", func(a *Assess) { a.Plaintext = "-3" }, "bad plaintext"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := DefaultAssess()
			tc.mut(&a)
			_, err := a.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}

	// Zero-valued optional fields resolve to defaults, including the ISA.
	a := Assess{Traces: 8, Policy: "none"}
	r, err := a.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if r.Kernel != "des" || r.Vary != "key" || r.KeyV == 0 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	if r.ISA != "pisa" || r.TargetV == nil || r.TargetV.Name() != "pisa" {
		t.Fatalf("default ISA not resolved to pisa: %q %v", r.ISA, r.TargetV)
	}

	// An explicit backend resolves and normalizes (case folded).
	a = Assess{Traces: 8, Policy: "selective", ISA: "RV32"}
	r, err = a.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if r.ISA != "rv32" || r.TargetV.Name() != "rv32" {
		t.Fatalf("explicit ISA not resolved: %q %v", r.ISA, r.TargetV)
	}
}

// TestProtectionAttackValidation: the structured selectors resolve, reject
// bad values with field-pinned errors, and agree with the legacy flat
// spelling.
func TestProtectionAttackValidation(t *testing.T) {
	a := DefaultAssess()
	a.Policy = ""
	a.Protection = &Protection{Policy: "boolean-mask", Shuffle: true}
	a.Attack = &Attack{Stat: "tvla", Order: 2}
	r, err := a.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if r.PolicyV != compiler.PolicyBooleanMask || !r.ShuffleV || r.MaskOrderV != 1 {
		t.Fatalf("protection resolved %+v", r)
	}
	if r.StatV != "tvla" || r.OrderV != 2 {
		t.Fatalf("attack resolved stat=%q order=%d", r.StatV, r.OrderV)
	}
	if cfg := r.Config(); cfg.Order != 2 {
		t.Fatalf("config order %d", cfg.Order)
	}
	opt := r.CompilerOptions()
	if opt.Policy != compiler.PolicyBooleanMask || !opt.Shuffle {
		t.Fatalf("compiler options %+v", opt)
	}

	// Empty attack object means first-order TVLA.
	a = DefaultAssess()
	a.Attack = &Attack{}
	r, err = a.Validate()
	if err != nil || r.StatV != "tvla" || r.OrderV != 1 {
		t.Fatalf("empty attack resolved stat=%q order=%d err=%v", r.StatV, r.OrderV, err)
	}

	for _, tc := range []struct {
		name  string
		mut   func(*Assess)
		field string
	}{
		{"bad structured policy", func(a *Assess) {
			a.Policy = ""
			a.Protection = &Protection{Policy: "paranoid"}
		}, "policy"},
		{"bad stat", func(a *Assess) { a.Attack = &Attack{Stat: "dpa"} }, "attack.stat"},
		{"bad order", func(a *Assess) { a.Attack = &Attack{Stat: "tvla", Order: 5} }, "attack.order"},
		{"bad mask order", func(a *Assess) {
			a.Policy = "boolean-mask"
			a.Protection = &Protection{MaskOrder: 3}
		}, "protection.mask_order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := DefaultAssess()
			tc.mut(&a)
			_, err := a.Validate()
			var fe *FieldError
			if err == nil || !errorsAs(err, &fe) {
				t.Fatalf("want FieldError, got %v", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("field %q, want %q", fe.Field, tc.field)
			}
			if len(fe.Allowed) == 0 {
				t.Fatal("FieldError without allowed values")
			}
		})
	}

	// mask_order on a non-masking policy is a conflict, not an enum error.
	a = DefaultAssess()
	a.Protection = &Protection{Policy: "selective", MaskOrder: 1}
	if _, err := a.Validate(); err == nil || !strings.Contains(err.Error(), "boolean-mask") {
		t.Fatalf("mask_order on selective: %v", err)
	}

	// Conflicting flat + structured policies are rejected.
	a = DefaultAssess()
	a.Policy = "none"
	a.Protection = &Protection{Policy: "selective"}
	if _, err := a.Validate(); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting policies: %v", err)
	}
}

// errorsAs is a local alias so the test reads like errors.As without the
// import shuffle.
func errorsAs(err error, target **FieldError) bool {
	for ; err != nil; err = unwrap(err) {
		if fe, ok := err.(*FieldError); ok {
			*target = fe
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestNormalize: structured spellings of legacy defaults fold back to the
// flat fields (shared idempotency keys), while real new settings survive.
func TestNormalize(t *testing.T) {
	base := DefaultAssess()

	// Default-valued structured objects disappear.
	a := base
	a.Policy = ""
	a.Protection = &Protection{Policy: "selective"}
	a.Attack = &Attack{Stat: "tvla", Order: 1}
	n := a.Normalize()
	if n.Protection != nil || n.Attack != nil || n.Policy != "selective" {
		t.Fatalf("defaults did not fold: %+v", n)
	}

	// boolean-mask's natural order folds too (mask_order 1 == default).
	a = base
	a.Policy = "boolean-mask"
	a.Protection = &Protection{MaskOrder: 1}
	n = a.Normalize()
	if n.Protection != nil || n.Policy != "boolean-mask" {
		t.Fatalf("natural mask order did not fold: %+v", n)
	}

	// Shuffle and second-order attacks survive normalization.
	a = base
	a.Protection = &Protection{Shuffle: true}
	a.Attack = &Attack{Order: 2}
	n = a.Normalize()
	if n.Protection == nil || !n.Protection.Shuffle || n.Protection.Policy != base.Policy {
		t.Fatalf("shuffle lost: %+v", n.Protection)
	}
	if n.Attack == nil || n.Attack.Stat != "tvla" || n.Attack.Order != 2 {
		t.Fatalf("order-2 attack lost: %+v", n.Attack)
	}

	// Normalization is idempotent.
	again := n.Normalize()
	if *again.Protection != *n.Protection || *again.Attack != *n.Attack {
		t.Fatalf("normalize not idempotent: %+v vs %+v", again, n)
	}
}

// TestNewFlagsRoundTrip: the new countermeasure/attack flags land in the
// structured objects and validate.
func TestNewFlagsRoundTrip(t *testing.T) {
	a := DefaultAssess()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.AddFlags(fs)
	if err := fs.Parse([]string{
		"-policy", "boolean-mask", "-shuffle", "-order", "2", "-traces", "32",
	}); err != nil {
		t.Fatal(err)
	}
	r, err := a.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if r.PolicyV != compiler.PolicyBooleanMask || !r.ShuffleV || r.OrderV != 2 {
		t.Fatalf("resolved %+v", r)
	}
}
