package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/gang"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/verdict"
)

// newTestServer spins up a small leakd instance over httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postAssess submits one assessment and decodes the response body.
func postAssess(t *testing.T, url string, req AssessRequest) (int, AssessResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var out AssessResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad 200 body %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, out, buf.String()
}

// smallDES is a fast unprotected DES assessment request.
func smallDES(traces int) AssessRequest {
	req := AssessRequest{}
	req.Kernel = "des"
	req.Policy = "none"
	req.Traces = traces
	req.MaxCycles = 6000
	req.Workers = 2
	return req
}

// TestAssessEndToEnd: the acceptance path — a DES vary-key TVLA job served
// over HTTP returns a populated verdict, and the unprotected build leaks.
func TestAssessEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, rep, body := postAssess(t, ts.URL, smallDES(64))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if rep.Workload != "des" || rep.Policy != "none" || rep.Vary != "key" {
		t.Fatalf("verdict header %+v", rep)
	}
	if rep.Report == nil || rep.NumTraces != 64 || rep.CyclesSimulated == 0 {
		t.Fatalf("report not populated: %+v", rep.Report)
	}
	if !rep.Leak {
		t.Fatal("unprotected DES did not leak")
	}
}

// TestAssessDeterministicAcrossRequests: the HTTP layer must not disturb the
// engine's determinism — identical submissions produce identical verdicts,
// and a server without a store, a store-backed one and leakstat.AssessContext
// called directly return the same verdict bit for bit.
func TestAssessDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, first, _ := postAssess(t, ts.URL, smallDES(64))
	_, second, _ := postAssess(t, ts.URL, smallDES(64))
	if first.MaxAbsT != second.MaxAbsT || first.MaxTCycle != second.MaxTCycle ||
		first.CyclesSimulated != second.CyclesSimulated {
		t.Fatalf("verdicts diverged: %+v vs %+v", first.Report, second.Report)
	}

	st, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	durable, dts := newTestServer(t, Config{Store: st})
	for _, tc := range []struct {
		policy string
		order  int
	}{{"none", 1}, {"boolean-mask", 2}} {
		for _, workers := range []int{1, 4} {
			req := smallDES(64)
			req.Policy, req.Workers = tc.policy, workers
			req.Attack = &cliconf.Attack{Stat: "tvla", Order: tc.order}
			resolved, err := durable.resolve(&req)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := durable.workload(context.Background(), &req, resolved)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := leakstat.AssessContext(context.Background(), wl.Source, wl.Config)
			if err != nil {
				t.Fatal(err)
			}
			for _, url := range []string{ts.URL, dts.URL} {
				code, rep, body := postAssess(t, url, req)
				if code != http.StatusOK {
					t.Fatalf("%s order %d workers %d: status %d: %s", tc.policy, tc.order, workers, code, body)
				}
				if math.Float64bits(rep.MaxAbsT) != math.Float64bits(ref.MaxAbsT) ||
					rep.MaxTCycle != ref.MaxTCycle || rep.CyclesSimulated != ref.CyclesSimulated {
					t.Fatalf("%s order %d workers %d: served verdict %+v, AssessContext %+v",
						tc.policy, tc.order, workers, rep.Report, ref)
				}
			}
		}
	}
}

// TestAssessGangMatchesScalar: the gang knob is a pure execution-strategy
// switch. A body without "gang" runs the default gang; it must return the
// exact Report of the explicit one-lane body ("gang":1) and of a gang-8 body.
func TestAssessGangMatchesScalar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var reports []*leakstat.Report
	for _, gangW := range []int{0, 1, 8} {
		req := smallDES(64)
		req.Shards = 2 // 32 traces per shard, so the gangs fill
		req.Gang = gangW
		code, resp, body := postAssess(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("gang %d: status %d: %s", gangW, code, body)
		}
		reports = append(reports, resp.Report)
	}
	for i, gangW := range []int{1, 8} {
		if got, ref := reports[i+1], reports[0]; !reflect.DeepEqual(got, ref) {
			t.Fatalf("gang %d report diverged from the default:\ndefault %+v\ngang %d  %+v", gangW, ref, gangW, got)
		}
	}
}

// TestAssessWindowTruncated: a response says when max_cycles cut the
// assessed region short, and carries no window_truncated key when it did
// not, so verdicts stored before the key existed replay byte for byte.
func TestAssessWindowTruncated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, body := postAssess(t, ts.URL, smallDES(16))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !resp.WindowTruncated || !strings.Contains(body, `"window_truncated": true`) {
		t.Fatalf("DES under a 6000-cycle budget: window not reported truncated: %s", body)
	}
	tea := smallDES(16)
	tea.Kernel = "tea" // its masked region ends well inside 6000 cycles
	code, resp, body = postAssess(t, ts.URL, tea)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if resp.WindowTruncated || strings.Contains(body, "window_truncated") {
		t.Fatalf("tea's whole masked region fits the budget, yet: %s", body)
	}
}

// TestAssessCacheHit: a repeated identical submission must hit the
// compiled-program cache.
func TestAssessCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, rep, body := postAssess(t, ts.URL, smallDES(16))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if rep.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	code, rep, body = postAssess(t, ts.URL, smallDES(16))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !rep.CacheHit {
		t.Fatal("repeat submission missed the program cache")
	}
	if hits, misses := s.cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestAssessTimeout: a request whose deadline expires mid-assessment returns
// 504 and frees its execution slot for the next request.
func TestAssessTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	// Warm the program cache so the timeout hits the assessment stage, not
	// the compile.
	if code, _, body := postAssess(t, ts.URL, smallDES(8)); code != http.StatusOK {
		t.Fatalf("warm-up failed: %d %s", code, body)
	}
	req := smallDES(100000)
	req.TimeoutMS = 150
	code, _, body := postAssess(t, ts.URL, req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	if !strings.Contains(body, "deadline") && !strings.Contains(body, "cancel") {
		t.Fatalf("504 body does not name the cause: %s", body)
	}
	// The slot must be free again: a small job completes.
	if code, _, body := postAssess(t, ts.URL, smallDES(8)); code != http.StatusOK {
		t.Fatalf("slot not freed after timeout: %d %s", code, body)
	}
}

// TestQueueOverflow: with one execution slot and a one-deep wait queue,
// a burst of simultaneous requests must see some admitted and the rest shed
// with 429.
func TestQueueOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	if code, _, body := postAssess(t, ts.URL, smallDES(8)); code != http.StatusOK {
		t.Fatalf("warm-up failed: %d %s", code, body)
	}

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := smallDES(512)
			req.TimeoutMS = 120_000
			code, _, _ := postAssess(t, ts.URL, req)
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		case http.StatusGatewayTimeout:
			// A queued request may expire under heavy instrumentation
			// (-race); expiry while queued is load shedding too.
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if shed == 0 {
		t.Fatalf("no request was shed: %d ok / %d shed", ok, shed)
	}
	if ok == 0 {
		t.Fatalf("every request was shed: %d ok / %d shed", ok, shed)
	}
}

// TestAssessValidation: the shared cliconf rules reject bad parameters with
// 400 before any work is admitted.
func TestAssessValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTraces: 100})
	cases := []struct {
		name string
		mut  func(*AssessRequest)
		want string
	}{
		{"bad policy", func(r *AssessRequest) { r.Policy = "paranoid" }, "unknown policy"},
		{"bad kernel", func(r *AssessRequest) { r.Kernel = "des3" }, "unknown kernel"},
		{"bad isa", func(r *AssessRequest) { r.ISA = "riscv64" }, "unknown isa"},
		{"bad isa valid policy", func(r *AssessRequest) { r.Policy, r.ISA = "selective", "arm" }, "unknown isa"},
		{"too few traces", func(r *AssessRequest) { r.Traces = 2 }, "at least 4"},
		{"over server cap", func(r *AssessRequest) { r.Traces = 101 }, "server limit"},
		{"source missing globals", func(r *AssessRequest) { r.Kernel, r.Source = "", "void main() {}" }, "secret_global"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := smallDES(16)
			tc.mut(&req)
			code, _, body := postAssess(t, ts.URL, req)
			if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Fatalf("status %d body %s, want 400 containing %q", code, body, tc.want)
			}
		})
	}
}

// TestAssessCrossISA: an `isa` request field selects the backend; the same
// unprotected workload leaks on both cores and the two builds are cached
// under distinct keys.
func TestAssessCrossISA(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, isaName := range []string{"pisa", "rv32"} {
		req := smallDES(64)
		req.ISA = isaName
		code, rep, body := postAssess(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("isa=%s: status %d: %s", isaName, code, body)
		}
		if rep.ISA != isaName {
			t.Fatalf("isa=%s: response echoes %q", isaName, rep.ISA)
		}
		if !rep.Leak {
			t.Fatalf("isa=%s: unprotected DES did not leak", isaName)
		}
		if rep.CacheHit {
			t.Fatalf("isa=%s: first build reported a cache hit — ISA missing from the cache key", isaName)
		}
	}
	if _, misses := s.cache.Stats(); misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (one per backend)", misses)
	}
	// An omitted isa field is the PISA build — it must hit the PISA entry.
	code, rep, body := postAssess(t, ts.URL, smallDES(64))
	if code != http.StatusOK || !rep.CacheHit || rep.ISA != "pisa" {
		t.Fatalf("default-isa request: code=%d hit=%v isa=%q (%s)", code, rep.CacheHit, rep.ISA, body)
	}
}

// TestMetrics: after traffic, /metrics exposes queue depth, jobs by state,
// cache hit rate and simulated cycles in the Prometheus text format.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postAssess(t, ts.URL, smallDES(16))
	postAssess(t, ts.URL, smallDES(16))
	bad := smallDES(16)
	bad.Policy = "paranoid"
	postAssess(t, ts.URL, bad)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"leakd_queue_depth 0",
		`leakd_jobs_total{state="completed"} 2`,
		`leakd_jobs_total{state="rejected"} 1`,
		"leakd_program_cache_hits_total 1",
		"leakd_program_cache_misses_total 1",
		"leakd_cycles_simulated_total",
		`leakd_stage_latency_seconds_bucket{stage="assess",le="+Inf"} 2`,
		`leakd_stage_latency_seconds_count{stage="compile"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
}

// TestMetricsGangCounters: /metrics counts the lanes that ran in lockstep
// and the lanes replayed one at a time, by deopt reason.
func TestMetricsGangCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := smallDES(16)
	req.Shards = 1
	if code, _, body := postAssess(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	// One gang of 16 lanes, none of which diverges on unprotected DES.
	wants := []string{"leakd_gang_lane_runs_total 16"}
	for _, reason := range gang.DeoptReasons {
		wants = append(wants, fmt.Sprintf("leakd_gang_deopts_total{reason=%q} 0", reason))
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHealthzAndPprof: the liveness and profiling surfaces answer.
func TestHealthzAndPprof(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestAssessCustomSource: a submitted MiniC program is compiled, cached and
// assessed through the same pipeline as the built-ins.
func TestAssessCustomSource(t *testing.T) {
	// A toy masked-style program: copies the secret through an ALU op into
	// the output. Unprotected, it must leak.
	src := `
secure int key[2];
int pt[2];
int out[2];
int r0;
int r1;

void emit_output() {
	out[0] = public(r0);
	out[1] = public(r1);
}

void main() {
	r0 = key[0] ^ pt[0];
	r1 = key[1] ^ pt[1];
	emit_output();
}
`
	_, ts := newTestServer(t, Config{})
	req := AssessRequest{Custom: verdict.Custom{
		Source:       src,
		SecretGlobal: "key",
		PublicGlobal: "pt",
		OutputGlobal: "out",
		OutputLen:    2,
		Secret:       []uint32{0xDEAD, 0xBEEF},
		Public:       []uint32{1, 2},
	}}
	req.Policy = "none"
	req.Traces = 32
	req.Workers = 2
	code, rep, body := postAssess(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if rep.Workload != "custom" || rep.Vary != "secret" {
		t.Fatalf("custom verdict header %+v", rep)
	}
	code, rep, body = postAssess(t, ts.URL, req)
	if code != http.StatusOK || !rep.CacheHit {
		t.Fatalf("repeat custom submission: status %d hit=%v %s", code, rep.CacheHit, body)
	}
}

// TestGracefulDrain: Shutdown waits for an in-flight assessment and the
// verdict still reaches the client.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{})
	httpSrv := httptest.NewServer(s.Handler())

	type result struct {
		code int
		body string
	}
	results := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(smallDES(64))
		resp, err := http.Post(httpSrv.URL+"/v1/assess", "application/json", bytes.NewReader(body))
		if err != nil {
			results <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		results <- result{resp.StatusCode, buf.String()}
	}()
	// Give the request a moment to be admitted, then close (which drains
	// in-flight connections like http.Server.Shutdown does).
	time.Sleep(100 * time.Millisecond)
	httpSrv.Close()
	select {
	case res := <-results:
		if res.code != http.StatusOK {
			t.Fatalf("in-flight request lost during drain: %d %s", res.code, res.body)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain hung")
	}
}

// TestCustomSourceOverrun400: request inputs longer than the submitted
// program's globals, or an output_len past its output global, are refused
// with a structured 400 naming the field instead of being poked over the
// neighbouring globals.
func TestCustomSourceOverrun400(t *testing.T) {
	src := `
secure int k[2];
int p[2];
int out[2];

void emit_output() {
	out[0] = public(k[0] ^ p[0]);
	out[1] = public(k[1] ^ p[1]);
}

void main() { emit_output(); }
`
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		field string
		edit  func(r *AssessRequest)
	}{
		{"secret", func(r *AssessRequest) { r.Secret = make([]uint32, 6) }},
		{"public", func(r *AssessRequest) { r.Public = []uint32{1, 2, 3} }},
		{"output_len", func(r *AssessRequest) { r.OutputLen = 5 }},
	} {
		req := AssessRequest{Custom: verdict.Custom{Source: src, SecretGlobal: "k", PublicGlobal: "p",
			OutputGlobal: "out", OutputLen: 2, Secret: []uint32{1, 2}, Public: []uint32{3, 4}}}
		req.Policy = "none"
		req.Traces = 8
		tc.edit(&req)
		code, _, body := postAssess(t, ts.URL, req)
		var e errorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("%s: bad error body %q: %v", tc.field, body, err)
		}
		if code != http.StatusBadRequest || e.Field != tc.field {
			t.Errorf("%s overrun: status %d field %q, want 400 naming %q: %s", tc.field, code, e.Field, tc.field, body)
		}
	}
}
