// Package server implements leakd, the long-running leakage-assessment
// service: an HTTP/JSON daemon that accepts TVLA assessment jobs (a named
// workload or submitted MiniC source, a masking policy, a trace count), runs
// them on shared sim.Runner pools through internal/leakstat, and returns the
// leakage verdict.
//
// The service layers three things on top of the batch engines without
// touching their determinism contract (DESIGN.md §10):
//
//   - Admission control: a semaphore bounds concurrently executing
//     assessments and a bounded wait queue sheds load with 429 once full.
//   - Cancellation: every request runs under a context with a per-request
//     deadline; the shard driver (leakstat.Fold.Run) stops launching
//     traces once the context dies and the request returns 504 with its
//     workers freed.
//   - Observability: /metrics (Prometheus text format), /healthz, and
//     /debug/pprof.
//
// Workloads are built through the verdict front door (internal/verdict),
// whose LRU program cache makes a repeat submission skip the masking
// compiler and micro-op predecode and land on a warm worker pool.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/harness"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/verdict"
)

// Config sizes the service.
type Config struct {
	// MaxConcurrent bounds assessments executing at once (<= 0: 2).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; one more
	// request is rejected with 429 (<= 0: 8).
	MaxQueue int
	// CacheSize bounds the compiled-program LRU (<= 0: 16).
	CacheSize int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (<= 0: 60s).
	DefaultTimeout time.Duration
	// MaxTraces caps the per-request trace count (<= 0: unlimited).
	MaxTraces int
	// Workers is the default shard worker pool size per assessment when the
	// request leaves workers at 0 (0 = GOMAXPROCS).
	Workers int
	// Store, when non-nil, makes assessments durable: every accepted job is
	// persisted before admission, survives a kill, and is resumed on
	// restart with exactly-once verdict semantics (see internal/jobstore).
	// It also enables the async job API (/v1/jobs) and per-shard streaming.
	Store *jobstore.Store
	// ShardWorkers lists base URLs of peer leakd processes to fan one
	// assessment's shard sub-jobs across (their POST /v1/shard endpoints).
	// Empty runs every shard in-process.
	ShardWorkers []string
	// Log receives service diagnostics (nil = the standard logger).
	Log *log.Logger
}

// Server is the leakd HTTP service.
type Server struct {
	cfg     Config
	cache   *verdict.Cache
	metrics *metrics
	sem     chan struct{}
	mux     *http.ServeMux
	log     *log.Logger

	// Background job-execution lifecycle: baseCtx cancels the async runners
	// on Close, wg tracks them for Drain.
	baseCtx   context.Context
	baseStop  context.CancelFunc
	wg        sync.WaitGroup
	progressM sync.Mutex
	progress  map[string]*jobProgress
	owned     map[string]bool // job ids an async runner currently owns
}

// New builds a Server with its routes registered.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	baseCtx, baseStop := context.WithCancel(context.Background())
	m := newMetrics()
	s := &Server{
		cfg:      cfg,
		cache:    verdict.NewCache(cfg.CacheSize, &m.gang),
		metrics:  m,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		mux:      http.NewServeMux(),
		log:      cfg.Log,
		baseCtx:  baseCtx,
		baseStop: baseStop,
		progress: make(map[string]*jobProgress),
		owned:    make(map[string]bool),
	}
	s.mux.HandleFunc("/v1/assess", s.handleAssess)
	s.mux.HandleFunc("/v1/shard", s.handleShard)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Close stops background job execution (async runners are cancelled; their
// jobs stay pending in the store and resume on the next start).
func (s *Server) Close() {
	s.baseStop()
	s.wg.Wait()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// AssessRequest is the JSON body of POST /v1/assess. The embedded
// cliconf.Assess carries exactly the parameter surface of the cmd/tvla
// flags, validated by the same rules.
type AssessRequest struct {
	cliconf.Assess

	// Custom, when its Source is non-empty, submits a MiniC program instead
	// of a named kernel.
	verdict.Custom

	// Optimize compiles with the taint-sound optimizing pass pipeline
	// (maskcc -O); part of the program-cache key.
	Optimize bool `json:"optimize,omitempty"`

	// TimeoutMS bounds the request (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// AssessResponse is the JSON verdict of one assessment.
type AssessResponse struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	// Protection echoes the structured countermeasure selector when the
	// assessment used one beyond a bare policy (masking order, shuffling);
	// legacy policy-only responses keep their historical shape.
	Protection *cliconf.Protection `json:"protection,omitempty"`
	// Attack echoes the distinguisher when it differs from first-order TVLA.
	Attack   *cliconf.Attack `json:"attack,omitempty"`
	ISA      string          `json:"isa"`
	Vary     string          `json:"vary"`
	Optimize bool            `json:"optimize"`
	*leakstat.Report
	Seconds  float64 `json:"seconds"`
	CacheHit bool    `json:"cache_hit"`
	// WindowTruncated reports that max_cycles ended the window before the
	// region it stands for (the masked region, or round 1) did: the verdict
	// covers only the window's cycles. Absent when the window is whole, so
	// verdicts stored before the field existed replay byte for byte.
	WindowTruncated bool `json:"window_truncated,omitempty"`
}

// errorResponse is the JSON error body. Field and Allowed are populated for
// validation failures pinned to one parameter (cliconf.FieldError): the
// client learns which field was rejected and what values it accepts instead
// of parsing prose.
type errorResponse struct {
	Error   string   `json:"error"`
	Field   string   `json:"field,omitempty"`
	Allowed []string `json:"allowed,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is gone; all that's left is to say what was lost
		// (typically the client hung up mid-response).
		s.log.Printf("leakd: writing %d response: %v", status, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...)}
	// Surface field-pinned validation failures structurally: any FieldError
	// in the argument list carries the offending field and its allowed
	// values into the body.
	for _, a := range args {
		err, ok := a.(error)
		if !ok {
			continue
		}
		var fe *cliconf.FieldError
		if errors.As(err, &fe) {
			resp.Field, resp.Allowed = fe.Field, fe.Allowed
			break
		}
	}
	s.writeJSON(w, status, resp)
}

// admit gates one unit of execution through the semaphore and its bounded
// wait queue, returning a release function on success, or the HTTP status
// (429 or 504) and reason on rejection. A request that finds a free slot is
// admitted on the fast path without touching the queue accounting — only
// genuinely waiting requests consume MaxQueue capacity, so a burst of
// MaxConcurrent+MaxQueue simultaneous requests is fully admitted.
func (s *Server) admit(ctx context.Context) (release func(), status int, err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, 0, nil
	default:
	}
	if depth := s.metrics.queueDepth.Add(1); depth > int64(s.cfg.MaxQueue) {
		s.metrics.queueDepth.Add(-1)
		return nil, http.StatusTooManyRequests, fmt.Errorf("queue full (%d waiting)", depth-1)
	}
	defer s.metrics.queueDepth.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, 0, nil
	case <-ctx.Done():
		return nil, http.StatusGatewayTimeout, fmt.Errorf("request expired while queued: %w", ctx.Err())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, hits, misses, s.cache.Len())
}

// resolve validates the request onto the shared cliconf surface. A submitted
// source program reuses the common validation with the workload name pinned;
// its own fields are checked here.
func (s *Server) resolve(req *AssessRequest) (*cliconf.ResolvedAssess, error) {
	a := req.Assess
	if req.Source != "" {
		if a.Kernel != "" && a.Kernel != "custom" {
			return nil, errors.New("source and kernel are mutually exclusive (use at most kernel \"custom\")")
		}
		if a.Vary == "plaintext" {
			return nil, errors.New("vary plaintext is DES-only; source programs always vary the secret")
		}
		if req.SecretGlobal == "" || req.PublicGlobal == "" || req.OutputGlobal == "" || req.OutputLen <= 0 {
			return nil, errors.New("source programs need secret_global, public_global, output_global and output_len")
		}
		if len(req.Secret) == 0 {
			return nil, errors.New("source programs need a fixed secret input array")
		}
		a.Kernel, a.Vary = "des", "key" // placeholders for the shared rules
	}
	r, err := a.Validate()
	if err != nil {
		return nil, err
	}
	if r.StatV != "tvla" {
		return nil, fmt.Errorf("attack.stat %q is not assessable over HTTP — leakd runs the tvla statistic; key-recovery attacks (cpa, dom) run offline via cmd/dpa-attack", r.StatV)
	}
	if s.cfg.MaxTraces > 0 && r.Traces > s.cfg.MaxTraces {
		return nil, fmt.Errorf("traces %d exceeds the server limit %d", r.Traces, s.cfg.MaxTraces)
	}
	if r.Workers == 0 {
		r.Workers = s.cfg.Workers
	}
	return r, nil
}

// workload builds the request's workload through the verdict front door and
// records its stage latencies: compile on a cache miss, window every time.
func (s *Server) workload(ctx context.Context, req *AssessRequest, r *cliconf.ResolvedAssess) (*verdict.Workload, error) {
	vreq := verdict.Request{Params: r, Optimize: req.Optimize}
	if req.Source != "" {
		vreq.Custom = &req.Custom
	}
	wl, err := verdict.Build(ctx, vreq, s.cache)
	if err != nil {
		return nil, err
	}
	if !wl.CacheHit {
		s.metrics.observeStage("compile", wl.Compile.Seconds())
	}
	s.metrics.observeStage("window", wl.Window.Seconds())
	return wl, nil
}

// ctxErr reports whether err is (or wraps) a context cancellation — the
// cases the HTTP surface maps to 504 rather than 422.
func ctxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// requestTimeout returns the effective deadline of a request.
func (s *Server) requestTimeout(req *AssessRequest) time.Duration {
	if req.TimeoutMS > 0 {
		return time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// handleAssess runs one assessment request end to end: durability (when a
// store is configured, the job is persisted before admission and a replay of
// a completed job returns its stored verdict), admission, program build
// (through the cache), windowed TVLA sweep, verdict.
func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req AssessRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.metrics.jobDone("rejected")
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resolved, err := s.resolve(&req)
	if err != nil {
		s.metrics.jobDone("rejected")
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req))
	defer cancel()

	// Durability: the job record reaches disk before admission, so an
	// accepted request survives any crash from here on, and an identical
	// resubmission of a completed job replays the stored verdict instead of
	// executing (exactly-once verdicts).
	var jobID string
	if s.cfg.Store != nil {
		rec, err := s.persistJob(&req, resolved)
		if err != nil {
			s.metrics.jobDone("failed")
			s.writeError(w, http.StatusInternalServerError, "persisting job: %v", err)
			return
		}
		if rec.State == jobstore.StateDone {
			s.metrics.jobDone("completed")
			s.writeRawJSON(w, http.StatusOK, rec.Verdict)
			return
		}
		jobID = rec.ID
	}

	release, status, aerr := s.admit(ctx)
	if aerr != nil {
		if status == http.StatusTooManyRequests {
			s.metrics.jobDone("rejected")
		} else {
			s.metrics.jobDone("timeout")
		}
		s.writeError(w, status, "%v", aerr)
		return
	}
	defer release()

	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	resp, err := s.execute(ctx, &req, resolved, jobID)
	s.finishJob(jobID, resp, err)
	var le *harness.LengthError
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusOK, resp)
	case ctxErr(err):
		s.writeError(w, http.StatusGatewayTimeout, "assessment cancelled: %v", err)
	case errors.As(err, &le):
		// An input that overruns its global is the request's fault: 400
		// naming the field.
		s.writeError(w, http.StatusBadRequest, "%v", &cliconf.FieldError{Field: le.Field, Value: fmt.Sprintf("%d words", le.Len),
			Reason: fmt.Sprintf("global %q holds %d", le.Global, le.Words)})
	default:
		s.writeError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// decodeBody decodes a JSON request body of at most 1 MiB into v, rejecting
// unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// execute runs the build + sweep of one admitted assessment. jobID, when
// non-empty, names the durable job whose shard accumulators are persisted as
// they complete; with shard workers configured the sweep fans out over HTTP.
// Context errors come back unwrapped so callers can map them to 504.
func (s *Server) execute(ctx context.Context, req *AssessRequest, resolved *cliconf.ResolvedAssess, jobID string) (*AssessResponse, error) {
	if jobID != "" {
		if err := s.cfg.Store.SetRunning(jobID); err != nil {
			s.log.Printf("leakd: marking job %s running: %v", jobID, err)
		}
	}
	start := time.Now()
	wl, err := s.workload(ctx, req, resolved)
	if err != nil {
		if ctxErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("build failed: %w", err)
	}

	assessStart := time.Now()
	rep, err := s.assessSharded(ctx, jobID, req, wl)
	if err != nil {
		if ctxErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("assessment failed: %w", err)
	}
	s.metrics.observeStage("assess", time.Since(assessStart).Seconds())
	s.metrics.cyclesSimulated.Add(rep.CyclesSimulated)

	resp := &AssessResponse{
		Workload: wl.Name,
		Policy:   resolved.PolicyV.String(),
		ISA:      resolved.TargetV.Name(),
		Vary:     wl.Vary,
		Optimize: req.Optimize,
		Report:   rep,
		Seconds:  time.Since(start).Seconds(),
		CacheHit: wl.CacheHit,

		WindowTruncated: wl.Region.Truncated,
	}
	// Echo the structured selectors when they say more than the flat fields:
	// legacy policy-only requests keep their historical response shape.
	if resolved.ShuffleV || resolved.MaskOrderV > 0 {
		resp.Protection = &cliconf.Protection{
			Policy:    resolved.PolicyV.String(),
			MaskOrder: resolved.MaskOrderV,
			Shuffle:   resolved.ShuffleV,
		}
	}
	if resolved.OrderV > 1 {
		resp.Attack = &cliconf.Attack{Stat: resolved.StatV, Order: resolved.OrderV}
	}
	return resp, nil
}

// finishJob records the outcome of an executed job, synchronous or async,
// in the job store and the metrics: a verdict completes it; context expiry
// leaves it pending, so a restart resumes its remaining shards; anything
// else fails it, counted as rejected when an input overran its global.
func (s *Server) finishJob(jobID string, resp *AssessResponse, err error) {
	outcome := "completed"
	var le *harness.LengthError
	switch {
	case err == nil:
		s.completeJob(jobID, resp)
	case ctxErr(err):
		outcome = "timeout"
		if jobID != "" {
			if rerr := s.cfg.Store.Requeue(jobID); rerr != nil {
				s.log.Printf("leakd: requeueing job %s: %v", jobID, rerr)
			}
		}
	default:
		outcome = "failed"
		if errors.As(err, &le) {
			outcome = "rejected"
		}
		if jobID != "" {
			if ferr := s.cfg.Store.Fail(jobID, err.Error()); ferr != nil {
				s.log.Printf("leakd: failing job %s: %v", jobID, ferr)
			}
		}
	}
	s.metrics.jobDone(outcome)
}
