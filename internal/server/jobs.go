// Durable jobs, shard fan-out, and progressive results for leakd.
//
// This file is the coordinator half of the distributed assessment design
// (DESIGN.md §15). One assessment is a fixed partition of NumShards shard
// sub-jobs, run by leakstat's shard driver (leakstat.Fold.Run); each sub-job
// covers its contiguous trace range, executed either in-process or on a peer
// leakd via POST /v1/shard, and its accumulator pair is persisted (jobstore)
// the moment the fold takes it. The fold merges in shard order, so the
// merged t-vector is bit-identical to a single-node run no matter which
// machine computed which shard, how execution interleaved, or how many times
// a crash forced a resume.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"desmask/internal/cliconf"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/verdict"
)

// canonicalRequest is the byte encoding the idempotency key hashes: the
// request's JSON in struct-field order, with the timeout zeroed — two
// submissions that differ only in how long the client is willing to wait are
// the same job — and the protection/attack selectors normalized
// (cliconf.Assess.Normalize), so a structured request that restates legacy
// defaults hashes to the same job ID as the bare-string spelling and
// replays its stored verdict.
func canonicalRequest(req *AssessRequest) ([]byte, error) {
	c := *req
	c.TimeoutMS = 0
	c.Assess = c.Assess.Normalize()
	return json.Marshal(&c)
}

// persistJob writes the job record for a request (idempotently) and returns
// it. The record is on disk before this returns — the durability point of
// the accept path.
func (s *Server) persistJob(req *AssessRequest, resolved *cliconf.ResolvedAssess) (*jobstore.Record, error) {
	canon, err := canonicalRequest(req)
	if err != nil {
		return nil, err
	}
	rec, _, err := s.cfg.Store.Create(jobstore.JobID(canon), canon, leakstat.NumShards(resolved.Config()))
	return rec, err
}

// completeJob records the verdict of a durable job. Completing an
// already-done job is a no-op in the store (first verdict wins), which is
// safe precisely because verdicts are deterministic.
func (s *Server) completeJob(jobID string, resp *AssessResponse) {
	if jobID == "" {
		return
	}
	verdict, err := json.Marshal(resp)
	if err != nil {
		s.log.Printf("leakd: encoding verdict for job %s: %v", jobID, err)
		return
	}
	if err := s.cfg.Store.Complete(jobID, verdict); err != nil {
		s.log.Printf("leakd: completing job %s: %v", jobID, err)
	}
}

// writeRawJSON replays a stored verdict without decoding it, re-indented so
// a replayed response is byte-compatible with a freshly computed one.
func (s *Server) writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err == nil {
		buf.WriteByte('\n')
		body = buf.Bytes()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.log.Printf("leakd: writing %d response: %v", status, err)
	}
}

// progressEvent is one frame of a job's result stream. PrefixShards counts
// the contiguous completed prefix of the shard partition; PrefixMaxAbsT is
// the exact max |t| of that prefix population's fold — a true partial
// verdict, not an estimate — and converges to the final MaxAbsT when the
// prefix reaches Total.
type progressEvent struct {
	// Shard is the shard that just completed (-1 for snapshot frames).
	Shard int `json:"shard"`
	Done  int `json:"done"`
	Total int `json:"total"`

	PrefixShards  int     `json:"prefix_shards"`
	PrefixMaxAbsT float64 `json:"prefix_max_abs_t"`

	// State is set on snapshot frames derived from the stored record.
	State string `json:"state,omitempty"`
	// Final marks the last frame of the stream.
	Final bool `json:"final,omitempty"`
}

// jobProgress streams one executing job's fold to its subscribers: every
// frame reads the driver's fold (leakstat.Fold), so the prefix t-statistic a
// frame carries is the one the verdict reports, at the job's order and
// clamped like it. All methods are nil-receiver safe: a non-durable
// assessment simply has no progress to track.
type jobProgress struct {
	fold   *leakstat.Fold
	mu     sync.Mutex
	shard  int // the shard delivered last (-1 before any)
	subs   map[chan progressEvent]struct{}
	closed bool
}

func newJobProgress(fold *leakstat.Fold) *jobProgress {
	return &jobProgress{fold: fold, shard: -1, subs: make(map[chan progressEvent]struct{})}
}

// frame returns the frame of the fold as it stands. Callers hold p.mu.
func (p *jobProgress) frame() progressEvent {
	pr := p.fold.Progress()
	return progressEvent{
		Shard:         p.shard,
		Done:          pr.Held,
		Total:         pr.Shards,
		PrefixShards:  pr.Prefix,
		PrefixMaxAbsT: pr.MaxAbsT,
		Final:         pr.Held == pr.Shards,
	}
}

// deliver broadcasts the frame of a shard the fold just took. The driver
// calls it before the fold takes another shard, so the frame is exactly the
// state that shard left.
func (p *jobProgress) deliver(acc *leakstat.ShardAccum) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shard = acc.Shard
	if len(p.subs) == 0 {
		// Nobody reads this frame; subscribe computes the snapshot's
		// t-statistic if someone attaches later.
		return
	}
	ev := p.frame()
	for ch := range p.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop the frame, never block execution
		}
	}
}

// subscribe returns a channel primed with the current snapshot frame.
func (p *jobProgress) subscribe() chan progressEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	ev := p.frame()
	// Room for the snapshot and one frame per shard, twice over.
	ch := make(chan progressEvent, 2*ev.Total+2)
	ch <- ev
	if p.closed {
		close(ch)
		return ch
	}
	p.subs[ch] = struct{}{}
	return ch
}

func (p *jobProgress) unsubscribe(ch chan progressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.subs[ch]; ok {
		delete(p.subs, ch)
		close(ch)
	}
}

// shut ends every subscriber's stream (execution finished or failed).
func (p *jobProgress) shut() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for ch := range p.subs {
		delete(p.subs, ch)
		close(ch)
	}
}

// openProgress registers live progress tracking for a durable job.
func (s *Server) openProgress(jobID string, fold *leakstat.Fold) *jobProgress {
	if jobID == "" {
		return nil
	}
	p := newJobProgress(fold)
	s.progressM.Lock()
	s.progress[jobID] = p
	s.progressM.Unlock()
	return p
}

func (s *Server) closeProgress(jobID string, p *jobProgress) {
	if p == nil {
		return
	}
	s.progressM.Lock()
	if s.progress[jobID] == p {
		delete(s.progress, jobID)
	}
	s.progressM.Unlock()
	p.shut()
}

// assessSharded runs an assessment through the shard driver: it resumes
// from whatever shard accumulators the store already holds, computes the
// missing shards (on peer workers when configured, in-process otherwise),
// and persists and streams each as the fold takes it. Because every executor
// covers exactly ShardRange of its shard and the fold merges in shard order,
// the result is bit-identical to an uninterrupted single-node AssessContext.
func (s *Server) assessSharded(ctx context.Context, jobID string, req *AssessRequest, wl *verdict.Workload) (*leakstat.Report, error) {
	exec, workers := s.peerExec(req, wl)
	cfg := wl.Config
	cfg.Workers = workers
	fold, err := leakstat.NewFold(cfg)
	if err != nil {
		return nil, err
	}
	if jobID != "" {
		stored, err := s.cfg.Store.Shards(jobID)
		if err != nil && !errors.Is(err, jobstore.ErrNotFound) {
			return nil, err
		}
		for _, acc := range stored {
			// A shard file that doesn't match this partition (window drift,
			// stray index) reads as "not computed"; corrupt files were
			// already dropped by the store's CRC check.
			if err := fold.Add(acc); err != nil {
				s.log.Printf("leakd: stored shard of %s not used: %v", jobID, err)
			}
		}
	}

	prog := s.openProgress(jobID, fold)
	defer s.closeProgress(jobID, prog)
	return fold.Run(ctx, wl.Source, exec, func(acc *leakstat.ShardAccum) {
		if jobID != "" {
			if err := s.cfg.Store.PutShard(jobID, acc); err != nil {
				// Persistence is best-effort per shard: losing one file only
				// costs recomputing that shard after a crash.
				s.log.Printf("leakd: persisting shard %d of %s: %v", acc.Shard, jobID, err)
			}
		}
		prog.deliver(acc)
	})
}

// peerExec returns the shard driver's executor and worker count. With peer
// workers configured, each of the request's local worker slots and each
// peer computes one shard at a time: a shard goes to whichever frees first,
// and a shard a peer failed runs in a local slot. Without peers it returns
// nil, the driver's in-process executor, and the request's worker count.
func (s *Server) peerExec(req *AssessRequest, wl *verdict.Workload) (func(context.Context, int) (*leakstat.ShardAccum, error), int) {
	peers := s.cfg.ShardWorkers
	if len(peers) == 0 {
		return nil, wl.Config.Workers
	}
	idle := make(chan string, len(peers))
	for _, base := range peers {
		idle <- base
	}
	workers := wl.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	local := make(chan struct{}, workers)
	winLen := wl.Config.Window.Len()
	return func(ctx context.Context, sh int) (*leakstat.ShardAccum, error) {
		select {
		case base := <-idle:
			acc, err := s.remoteShard(ctx, base, req, sh, winLen)
			idle <- base
			if err == nil || ctx.Err() != nil {
				return acc, err
			}
			// A sick worker degrades throughput, never the verdict: its
			// shard runs locally instead.
			s.log.Printf("leakd: worker %s shard %d: %v (running locally)", base, sh, err)
			select {
			case local <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case local <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-local }()
		return leakstat.AssessShard(ctx, wl.Source, wl.Config, sh)
	}, workers + len(peers)
}

// shardRequest is the wire form of one shard sub-job: the full assessment
// request plus the shard index to execute.
type shardRequest struct {
	AssessRequest
	Shard int `json:"shard"`
}

// remoteShard executes one shard on a peer leakd and decodes the binary
// accumulator it returns, verifying the shard index and window length so a
// misconfigured peer can never fold a wrong-shaped accumulator.
func (s *Server) remoteShard(ctx context.Context, base string, req *AssessRequest, shard, winLen int) (*leakstat.ShardAccum, error) {
	body, err := json.Marshal(&shardRequest{AssessRequest: *req, Shard: shard})
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(base, "/")+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %d: %s: %s", shard, resp.Status, strings.TrimSpace(string(data)))
	}
	acc := new(leakstat.ShardAccum)
	if err := acc.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	if acc.Shard != shard || acc.Fixed.Len() != winLen || acc.Random.Len() != winLen {
		return nil, fmt.Errorf("shard %d: peer returned shard %d with window %d, want %d", shard, acc.Shard, acc.Fixed.Len(), winLen)
	}
	return acc, nil
}

// handleShard is the worker side of the fan-out: it executes exactly one
// shard of the described assessment and returns the accumulator pair in its
// binary encoding. The build goes through the same program cache as full
// assessments, so a worker compiles each program once no matter how many
// shards it serves.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req shardRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resolved, err := s.resolve(&req.AssessRequest)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req.AssessRequest))
	defer cancel()
	release, status, aerr := s.admit(ctx)
	if aerr != nil {
		s.writeError(w, status, "%v", aerr)
		return
	}
	defer release()

	wl, err := s.workload(ctx, &req.AssessRequest, resolved)
	if err != nil {
		if ctxErr(err) {
			s.writeError(w, http.StatusGatewayTimeout, "shard cancelled: %v", err)
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, "build failed: %v", err)
		return
	}
	acc, err := leakstat.AssessShard(ctx, wl.Source, wl.Config, req.Shard)
	if err != nil {
		if ctxErr(err) {
			s.writeError(w, http.StatusGatewayTimeout, "shard cancelled: %v", err)
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, "shard failed: %v", err)
		return
	}
	data, err := acc.MarshalBinary()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding shard: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(data); err != nil {
		s.log.Printf("leakd: writing shard %d response: %v", req.Shard, err)
	}
}

// handleJobs is the async job API: POST submits (202 with the pending
// record; replays of known jobs return the existing record), GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusServiceUnavailable, "durable jobs need a store (start leakd with -data)")
		return
	}
	switch r.Method {
	case http.MethodGet:
		recs, err := s.cfg.Store.List()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "listing jobs: %v", err)
			return
		}
		if recs == nil {
			recs = []*jobstore.Record{}
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"jobs": recs})
	case http.MethodPost:
		var req AssessRequest
		if err := decodeBody(w, r, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		resolved, err := s.resolve(&req)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rec, err := s.persistJob(&req, resolved)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "persisting job: %v", err)
			return
		}
		if rec.Terminal() {
			s.writeJSON(w, http.StatusOK, rec)
			return
		}
		s.spawnJob(&req, resolved, rec.ID)
		s.writeJSON(w, http.StatusAccepted, rec)
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleJob serves GET /v1/jobs/{id} (the stored record, including the
// verdict once done) and GET /v1/jobs/{id}/stream (the progressive result
// stream).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusServiceUnavailable, "durable jobs need a store (start leakd with -data)")
		return
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	stream := false
	if strings.HasSuffix(id, "/stream") {
		stream = true
		id = strings.TrimSuffix(id, "/stream")
	}
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, http.StatusNotFound, "no such route")
		return
	}
	rec, err := s.cfg.Store.Get(id)
	if err != nil {
		if errors.Is(err, jobstore.ErrNotFound) {
			s.writeError(w, http.StatusNotFound, "unknown job %s", id)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !stream {
		s.writeJSON(w, http.StatusOK, rec)
		return
	}
	s.streamJob(w, r, rec)
}

// streamJob writes the job's result stream as server-sent events: one
// `data:` frame per completed shard carrying the progressive prefix-fold
// t-statistic, ending with a Final frame. A job with no live execution gets
// a single snapshot frame from its stored record; the verdict itself is
// fetched from GET /v1/jobs/{id} once the stream ends.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, rec *jobstore.Record) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	s.progressM.Lock()
	prog := s.progress[rec.ID]
	s.progressM.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeFrame := func(ev progressEvent) {
		data, err := json.Marshal(ev)
		if err != nil {
			s.log.Printf("leakd: encoding stream frame of job %s: %v", rec.ID, err)
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		fl.Flush()
	}

	if prog == nil {
		done := 0
		if rec.State == jobstore.StateDone {
			done = rec.Shards
		}
		writeFrame(progressEvent{
			Shard: -1, Done: done, Total: rec.Shards, PrefixShards: done,
			State: string(rec.State), Final: true,
		})
		return
	}
	ch := prog.subscribe()
	defer prog.unsubscribe(ch)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			writeFrame(ev)
			if ev.Final {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// spawnJob starts (at most one) background runner for a durable job. Async
// runners block for an execution slot without consuming interactive queue
// capacity — the job is already durable, so waiting costs nothing — and are
// cancelled by Close, leaving the job pending for the next recovery pass.
func (s *Server) spawnJob(req *AssessRequest, resolved *cliconf.ResolvedAssess, id string) bool {
	s.progressM.Lock()
	if s.owned[id] {
		s.progressM.Unlock()
		return false
	}
	s.owned[id] = true
	s.progressM.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			s.progressM.Lock()
			delete(s.owned, id)
			s.progressM.Unlock()
		}()
		ctx, cancel := context.WithTimeout(s.baseCtx, s.requestTimeout(req))
		defer cancel()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return // still pending; resumed on the next Recover
		}
		defer func() { <-s.sem }()
		s.metrics.running.Add(1)
		defer s.metrics.running.Add(-1)

		resp, err := s.execute(ctx, req, resolved, id)
		s.finishJob(id, resp, err)
	}()
	return true
}

// Recover re-spawns every incomplete job in the store — the restart half of
// the durability contract. Each resumed job re-runs only its missing shards
// and, by exactly-once Complete semantics, lands the same verdict an
// uninterrupted run would have. Returns the number of jobs resumed.
func (s *Server) Recover() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	inc, err := s.cfg.Store.Incomplete()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rec := range inc {
		var req AssessRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			s.log.Printf("leakd: job %s request unreadable: %v", rec.ID, err)
			if ferr := s.cfg.Store.Fail(rec.ID, fmt.Sprintf("unreadable request: %v", err)); ferr != nil {
				s.log.Printf("leakd: failing job %s: %v", rec.ID, ferr)
			}
			continue
		}
		resolved, err := s.resolve(&req)
		if err != nil {
			s.log.Printf("leakd: job %s no longer valid: %v", rec.ID, err)
			if ferr := s.cfg.Store.Fail(rec.ID, fmt.Sprintf("request no longer valid: %v", err)); ferr != nil {
				s.log.Printf("leakd: failing job %s: %v", rec.ID, ferr)
			}
			continue
		}
		if err := s.cfg.Store.Requeue(rec.ID); err != nil {
			s.log.Printf("leakd: requeueing job %s: %v", rec.ID, err)
			continue
		}
		if s.spawnJob(&req, resolved, rec.ID) {
			n++
		}
	}
	return n, nil
}
