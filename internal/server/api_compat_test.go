package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"desmask/internal/cliconf"
	"desmask/internal/jobstore"
)

// TestStructuredRequestCanonicalization: a structured protection/attack
// request that restates legacy defaults hashes to the same job ID as the
// bare-string spelling, and a request that actually enables a new
// countermeasure or statistic gets its own ID.
func TestStructuredRequestCanonicalization(t *testing.T) {
	legacy := smallDES(64)

	structured := smallDES(64)
	structured.Protection = &cliconf.Protection{Policy: "none"}
	structured.Attack = &cliconf.Attack{Stat: "tvla", Order: 1}
	structured.Policy = ""

	// Differing timeouts never split a job either.
	structured.TimeoutMS = 99_000

	cLegacy, err := canonicalRequest(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	cStructured, err := canonicalRequest(&structured)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cLegacy, cStructured) {
		t.Fatalf("canonical forms diverge:\nlegacy     %s\nstructured %s", cLegacy, cStructured)
	}
	if jobstore.JobID(cLegacy) != jobstore.JobID(cStructured) {
		t.Fatal("legacy and default-structured requests map to different job IDs")
	}

	shuffled := smallDES(64)
	shuffled.Protection = &cliconf.Protection{Policy: "none", Shuffle: true}
	cShuffled, err := canonicalRequest(&shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if jobstore.JobID(cShuffled) == jobstore.JobID(cLegacy) {
		t.Fatal("shuffled request collides with the unshuffled job ID")
	}

	order2 := smallDES(64)
	order2.Attack = &cliconf.Attack{Stat: "tvla", Order: 2}
	cOrder2, err := canonicalRequest(&order2)
	if err != nil {
		t.Fatal(err)
	}
	if jobstore.JobID(cOrder2) == jobstore.JobID(cLegacy) {
		t.Fatal("second-order request collides with the first-order job ID")
	}
}

// TestDefaultRequestJobID pins the job ID of a fixed body that leaves gang
// unset: the gang default changes how a verdict is computed, not which job
// it is, so stored verdicts keep answering the requests that made them.
func TestDefaultRequestJobID(t *testing.T) {
	req := smallDES(64)
	canon, err := canonicalRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	const want = "9bb302c8f195dfaaa45882511c09c2de0749c6a2455b814d0aa4600be1c206ab"
	if got := jobstore.JobID(canon); got != want {
		t.Fatalf("job ID %s, want %s (canonical body %s)", got, want, canon)
	}
}

// TestLegacyRequestReplaysStoredVerdict: the acceptance-criteria compat
// path — a verdict stored under the legacy bare-string spelling replays
// byte-for-byte for both the legacy resubmission and the equivalent
// structured request.
func TestLegacyRequestReplaysStoredVerdict(t *testing.T) {
	st, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})

	legacy := smallDES(32)
	code, _, first := postAssess(t, ts.URL, legacy)
	if code != http.StatusOK {
		t.Fatalf("first submission: status %d: %s", code, first)
	}

	code, _, replay := postAssess(t, ts.URL, legacy)
	if code != http.StatusOK {
		t.Fatalf("legacy replay: status %d: %s", code, replay)
	}
	if replay != first {
		t.Fatalf("legacy replay not byte-identical:\nfirst  %s\nreplay %s", first, replay)
	}

	structured := smallDES(32)
	structured.Policy = ""
	structured.Protection = &cliconf.Protection{Policy: "none"}
	structured.Attack = &cliconf.Attack{Stat: "tvla"}
	code, _, viaStructured := postAssess(t, ts.URL, structured)
	if code != http.StatusOK {
		t.Fatalf("structured replay: status %d: %s", code, viaStructured)
	}
	if viaStructured != first {
		t.Fatalf("structured spelling did not replay the stored verdict:\nfirst      %s\nstructured %s", first, viaStructured)
	}
}

// postRaw submits a raw JSON body and returns status + body text.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/assess", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestStructured400: unknown policy/attack values come back as structured
// 400 bodies naming the field and its allowed values.
func TestStructured400(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, body, field, allowed string
	}{
		{"legacy policy", `{"kernel":"des","policy":"paranoid","traces":8}`,
			"policy", "boolean-mask"},
		{"structured policy", `{"kernel":"des","protection":{"policy":"paranoid"},"traces":8}`,
			"policy", "selective"},
		{"attack stat", `{"kernel":"des","policy":"none","attack":{"stat":"mojo"},"traces":8}`,
			"attack.stat", "tvla"},
		{"attack order", `{"kernel":"des","policy":"none","attack":{"stat":"tvla","order":3},"traces":8}`,
			"attack.order", "2"},
		{"mask order", `{"kernel":"des","protection":{"policy":"boolean-mask","mask_order":2},"traces":8}`,
			"protection.mask_order", "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRaw(t, ts.URL, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", code, body)
			}
			var er struct {
				Error   string   `json:"error"`
				Field   string   `json:"field"`
				Allowed []string `json:"allowed"`
			}
			if err := json.Unmarshal([]byte(body), &er); err != nil {
				t.Fatalf("bad 400 body %q: %v", body, err)
			}
			if er.Field != tc.field {
				t.Fatalf("field %q, want %q (body %s)", er.Field, tc.field, body)
			}
			found := false
			for _, a := range er.Allowed {
				if a == tc.allowed {
					found = true
				}
			}
			if !found {
				t.Fatalf("allowed %v does not list %q", er.Allowed, tc.allowed)
			}
		})
	}

	// stat=cpa is valid API-wide but not assessable over HTTP: plain 400
	// that points at the offline driver.
	code, body := postRaw(t, ts.URL, `{"kernel":"des","policy":"none","attack":{"stat":"cpa"},"traces":8}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "dpa-attack") {
		t.Fatalf("cpa request: status %d body %s", code, body)
	}

	// Conflicting flat and structured policies are rejected, not silently
	// resolved.
	code, body = postRaw(t, ts.URL, `{"kernel":"des","policy":"none","protection":{"policy":"selective"},"traces":8}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "conflict") {
		t.Fatalf("conflicting policies: status %d body %s", code, body)
	}
}

// TestAssessStructuredProtection: a boolean-mask + shuffle assessment runs
// end to end over HTTP and echoes the structured selectors; the verdict is
// clean at first order (the whole point of the countermeasure).
func TestAssessStructuredProtection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AssessRequest{}
	req.Kernel = "des"
	req.Protection = &cliconf.Protection{Policy: "boolean-mask", Shuffle: true}
	req.Traces = 16
	req.MaxCycles = 6000
	req.Workers = 2
	code, rep, body := postAssess(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if rep.Policy != "boolean-mask" {
		t.Fatalf("policy %q", rep.Policy)
	}
	if rep.Protection == nil || !rep.Protection.Shuffle || rep.Protection.MaskOrder != 1 {
		t.Fatalf("protection echo %+v", rep.Protection)
	}
	if rep.Report == nil || rep.Report.Order != 1 {
		t.Fatalf("report %+v", rep.Report)
	}

	// Second-order assessment of the same build: the attack selector flows
	// through to the engine and back out in the echo.
	req.Attack = &cliconf.Attack{Stat: "tvla", Order: 2}
	code, rep, body = postAssess(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("order-2 status %d: %s", code, body)
	}
	if rep.Attack == nil || rep.Attack.Order != 2 || rep.Report.Order != 2 {
		t.Fatalf("order-2 echo attack=%+v report=%+v", rep.Attack, rep.Report)
	}
}
