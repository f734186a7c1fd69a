package main

import (
	"bytes"
	"strings"
	"testing"

	"desmask/internal/cliconf"
)

// TestTruncatedWindowWarning pins `tvla -policy none -traces 16 -max 300`:
// the budget cuts unprotected DES's masked region to [0,300), so tvla warns
// on standard error that the verdict covers only that window, and the
// report itself is unchanged. The default budget on tea covers its whole
// masked region and prints no warning.
func TestTruncatedWindowWarning(t *testing.T) {
	for _, tc := range []struct {
		kernel    string
		maxCycles uint64
		warn      string
	}{
		{"des", 300, "tvla: warning: des none: -max cut the assessed region short; the verdict covers window [0,300) only\n"},
		{"tea", 25_000, ""},
	} {
		params := cliconf.DefaultAssess()
		params.Kernel, params.Policy, params.Traces, params.MaxCycles = tc.kernel, "none", 16, tc.maxCycles
		r, err := params.Validate()
		if err != nil {
			t.Fatal(err)
		}
		a, err := assess(r.Kernel, r.CompilerOptions(), r.Vary, r.KeyV, r.PlaintextV, r.Config(), r.MaxCycles, false)
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		printAssessment(&out, &errOut, a)
		if errOut.String() != tc.warn {
			t.Errorf("%s -max %d: stderr %q, want %q", tc.kernel, tc.maxCycles, errOut.String(), tc.warn)
		}
		if tc.kernel == "des" && !strings.Contains(out.String(), "window=[0,300)") {
			t.Errorf("report does not name the assessed window:\n%s", out.String())
		}
	}
}
