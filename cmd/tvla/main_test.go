package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
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
		a, err := assess(r, false)
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

// TestLeakcheckSites pins `tvla -all -leakcheck`: for every policy the
// taint check counts the leak sites outside declassification, prints them
// under the policy's report and records them as taint_leak_sites in the -o
// JSON. Sound policies (selective, all-secure) have none; boolean-mask's
// shares run on the insecure datapath and do.
func TestLeakcheckSites(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		sites []int // in compiler.Policies() order
	}{
		{[]string{"-traces", "16", "-max", "300"}, []int{66, 62, 0, 22, 0, 48}},
		{[]string{"-kernel", "tea", "-traces", "16"}, []int{34, 18, 0, 16, 0, 22}},
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		args := append([]string{"-all", "-leakcheck", "-o", path}, tc.args...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("tvla %v: exit %d: %s", args, code, errOut.String())
		}
		var want strings.Builder
		for _, n := range tc.sites {
			fmt.Fprintf(&want, "taint check: %d leak sites outside declassification\n", n)
		}
		var got strings.Builder
		for _, line := range strings.Split(out.String(), "\n") {
			if s := strings.TrimSpace(line); strings.HasPrefix(s, "taint check:") {
				got.WriteString(s + "\n")
			}
		}
		if got.String() != want.String() {
			t.Errorf("tvla %v: taint lines\n%swant\n%s", args, got.String(), want.String())
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var reports []struct {
			Policy         string `json:"policy"`
			TaintLeakSites *int   `json:"taint_leak_sites"`
		}
		if err := json.Unmarshal(data, &reports); err != nil {
			t.Fatal(err)
		}
		if len(reports) != len(compiler.Policies()) {
			t.Fatalf("tvla %v: %d reports, want %d", args, len(reports), len(compiler.Policies()))
		}
		for i, pol := range compiler.Policies() {
			r := reports[i]
			if r.Policy != pol.String() || r.TaintLeakSites == nil || *r.TaintLeakSites != tc.sites[i] {
				n := "absent"
				if r.TaintLeakSites != nil {
					n = fmt.Sprint(*r.TaintLeakSites)
				}
				t.Errorf("tvla %v: report %d: policy %s taint_leak_sites %s, want %s %d",
					args, i, r.Policy, n, pol, tc.sites[i])
			}
		}
	}
}
