package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// TestAdmitFastPathAndQueueAccounting: a request that finds a free execution
// slot must not consume wait-queue capacity — a burst of exactly
// MaxConcurrent+MaxQueue concurrent requests is fully admitted, and only the
// next one is shed with 429.
func TestAdmitFastPathAndQueueAccounting(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, MaxQueue: 2})
	ctx := context.Background()

	// Fill both execution slots on the fast path.
	var slots []func()
	for i := 0; i < 2; i++ {
		rel, status, err := s.admit(ctx)
		if err != nil {
			t.Fatalf("fast-path admit %d: status %d: %v", i, status, err)
		}
		slots = append(slots, rel)
	}
	if d := s.metrics.queueDepth.Load(); d != 0 {
		t.Fatalf("fast-path acquisitions consumed queue capacity: depth %d", d)
	}

	// Two more requests wait in the (now exactly full) queue.
	admitted := make(chan func(), 2)
	for i := 0; i < 2; i++ {
		go func() {
			rel, status, err := s.admit(ctx)
			if err != nil {
				t.Errorf("queued admit: status %d: %v", status, err)
				return
			}
			admitted <- rel
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.queueDepth.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 2", s.metrics.queueDepth.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Request MaxConcurrent+MaxQueue+1 is the first one shed.
	if _, status, err := s.admit(ctx); err == nil || status != http.StatusTooManyRequests {
		t.Fatalf("overflow admit: status %d err %v, want 429", status, err)
	}

	// Freed slots drain the queue in turn.
	slots[0]()
	slots[1]()
	rel := <-admitted
	rel()
	rel = <-admitted
	rel()

	// A queued request whose deadline expires is released with 504.
	r1, _, err := s.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := s.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	expCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, status, err := s.admit(expCtx); err == nil || status != http.StatusGatewayTimeout {
		t.Fatalf("expired admit: status %d err %v, want 504", status, err)
	}
	if d := s.metrics.queueDepth.Load(); d != 0 {
		t.Fatalf("expired waiter leaked queue depth %d", d)
	}
	r1()
	r2()
}

// TestAssessDeadlineMidBuild: a request whose deadline expires during the
// (cold-cache) program build returns 504 — not 422 — and frees its
// execution slot for the next request.
func TestAssessDeadlineMidBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	req := smallDES(16)
	req.TimeoutMS = 1 // expires long before the DES build can finish
	code, _, body := postAssess(t, ts.URL, req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mid-build expiry: status %d, want 504: %s", code, body)
	}
	code, rep, body := postAssess(t, ts.URL, smallDES(16))
	if code != http.StatusOK {
		t.Fatalf("slot not freed after mid-build expiry: status %d: %s", code, body)
	}
	if !rep.Leak {
		t.Fatal("unprotected DES did not leak")
	}
}

// TestDurableResumeBitIdentical is the durability acceptance matrix: a job
// killed mid-assessment (only a few shard accumulators reached disk) and
// resumed by a fresh daemon — fanning the remaining shards across peer
// worker processes — must land the exact verdict of an uninterrupted
// single-node run, with the merged t-vector bit-identical, for sim workers
// 1/4 × shard workers 1/4. A replay of the completed job returns the stored
// verdict without executing.
func TestDurableResumeBitIdentical(t *testing.T) {
	for _, simW := range []int{1, 4} {
		for _, shardW := range []int{1, 4} {
			t.Run(fmt.Sprintf("sim%d_shard%d", simW, shardW), func(t *testing.T) {
				req := smallDES(32)
				req.Workers = simW
				req.Shards = 8

				// Uninterrupted single-node reference, full t-vector.
				refS := New(Config{})
				resolved, err := refS.resolve(&req)
				if err != nil {
					t.Fatal(err)
				}
				wl, err := refS.workload(context.Background(), &req, resolved)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := leakstat.Assess(wl.Source, wl.Config)
				if err != nil {
					t.Fatal(err)
				}

				// "Crash": the first run persisted shards 0, 2 and 5, then
				// died before admitting anything else to disk.
				dir := t.TempDir()
				st, err := jobstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				canon, err := canonicalRequest(&req)
				if err != nil {
					t.Fatal(err)
				}
				id := jobstore.JobID(canon)
				if _, _, err := st.Create(id, canon, 8); err != nil {
					t.Fatal(err)
				}
				if err := st.SetRunning(id); err != nil {
					t.Fatal(err)
				}
				for _, sh := range []int{0, 2, 5} {
					acc, err := leakstat.AssessShard(context.Background(), wl.Source, wl.Config, sh)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.PutShard(id, acc); err != nil {
						t.Fatal(err)
					}
				}

				// Restart: a fresh daemon over the same store, with shardW
				// peer leakd workers, resumes the job synchronously.
				var peers []string
				for i := 0; i < shardW; i++ {
					_, wts := newTestServer(t, Config{})
					peers = append(peers, wts.URL)
				}
				st2, err := jobstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				_, ts := newTestServer(t, Config{Store: st2, ShardWorkers: peers})
				code, rep, body := postAssess(t, ts.URL, req)
				if code != http.StatusOK {
					t.Fatalf("resumed assessment: status %d: %s", code, body)
				}
				if math.Float64bits(rep.MaxAbsT) != math.Float64bits(ref.MaxAbsT) ||
					rep.MaxTCycle != ref.MaxTCycle || rep.Leak != ref.Leak ||
					rep.CyclesSimulated != ref.CyclesSimulated {
					t.Fatalf("resumed verdict diverged from single-node:\nresumed %+v\nref     %+v", rep.Report, ref)
				}

				// Every shard is now on disk; folding the persisted
				// accumulators reproduces the reference t-vector bit for bit.
				stored, err := st2.Shards(id)
				if err != nil {
					t.Fatal(err)
				}
				parts := make([]*leakstat.ShardAccum, 8)
				for i := range parts {
					if parts[i] = stored[i]; parts[i] == nil {
						t.Fatalf("shard %d not persisted after resume", i)
					}
				}
				fold, err := leakstat.FoldReport(wl.Config, parts)
				if err != nil {
					t.Fatal(err)
				}
				for j := range ref.T {
					if math.Float64bits(fold.T[j]) != math.Float64bits(ref.T[j]) {
						t.Fatalf("t[%d] differs after crash-resume: %x vs %x",
							j, math.Float64bits(fold.T[j]), math.Float64bits(ref.T[j]))
					}
				}

				// Exactly-once: the job is done, and a resubmission replays
				// the stored verdict.
				rec, err := st2.Get(id)
				if err != nil || rec.State != jobstore.StateDone {
					t.Fatalf("record after resume: %+v err=%v", rec, err)
				}
				code, rep2, body := postAssess(t, ts.URL, req)
				if code != http.StatusOK {
					t.Fatalf("replay: status %d: %s", code, body)
				}
				if math.Float64bits(rep2.MaxAbsT) != math.Float64bits(rep.MaxAbsT) ||
					rep2.CyclesSimulated != rep.CyclesSimulated {
					t.Fatalf("replayed verdict diverged: %+v vs %+v", rep2.Report, rep.Report)
				}
			})
		}
	}
}

// TestProgressSnapshotWithoutSubscribers: progress computes the prefix
// t-statistic only for a subscriber; one that attaches after every shard
// landed gets, in its snapshot frame, the frame a subscriber attached
// throughout received last.
func TestProgressSnapshotWithoutSubscribers(t *testing.T) {
	shard := func(s int, base float64) *leakstat.ShardAccum {
		acc := &leakstat.ShardAccum{Shard: s, Fixed: leakstat.NewVec(3), Random: leakstat.NewVec(3)}
		acc.Fixed.AddTrace([]float64{base, 2, 3})
		acc.Fixed.AddTrace([]float64{base + 1, 2.5, 3})
		acc.Random.AddTrace([]float64{base + 4, 2, 1})
		acc.Random.AddTrace([]float64{base + 6, 2.5, 0})
		return acc
	}
	progress := func() *jobProgress {
		fold, err := leakstat.NewFold(leakstat.Config{NumTraces: 8, Shards: 2, Window: trace.Window{End: 3}})
		if err != nil {
			t.Fatal(err)
		}
		return newJobProgress(fold)
	}
	watched, late := progress(), progress()
	ch := watched.subscribe()
	for s, base := range []float64{1, 1.5} {
		for _, p := range []*jobProgress{watched, late} {
			acc := shard(s, base)
			if err := p.fold.Add(acc); err != nil {
				t.Fatal(err)
			}
			p.deliver(acc)
		}
	}
	var last progressEvent
	for i := 0; i < 3; i++ { // the snapshot, then one frame per shard
		last = <-ch
	}
	if !last.Final || last.PrefixMaxAbsT == 0 {
		t.Fatalf("last streamed frame %+v: want the final frame with a t-statistic", last)
	}
	if got := <-late.subscribe(); got != last {
		t.Fatalf("late snapshot %+v, want %+v", got, last)
	}
}

// TestStreamPrefixMatchesVerdict: an SSE client attached before a job's
// first trace runs reads the snapshot plus one frame per shard, each with a
// finite (JSON-encodable) prefix t-statistic, and the final frame's prefix
// covers every shard and carries the verdict's max_abs_t bit for bit, at
// order 1 (whose early prefixes are deterministic ±Inf leaks) and order 2.
func TestStreamPrefixMatchesVerdict(t *testing.T) {
	for _, order := range []int{1, 2} {
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			st, err := jobstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{Store: st})
			req := smallDES(32)
			req.Shards = 8
			req.Attack = &cliconf.Attack{Stat: "tvla", Order: order}
			resolved, err := s.resolve(&req)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := s.persistJob(&req, resolved)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := s.workload(context.Background(), &req, resolved)
			if err != nil {
				t.Fatal(err)
			}
			// No trace runs until the stream client is attached.
			gated, gate := *wl, make(chan struct{})
			gated.Source.Job = func(i int, fixed bool) (sim.Job, error) {
				<-gate
				return wl.Source.Job(i, fixed)
			}
			type outcome struct {
				rep *leakstat.Report
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rep, err := s.assessSharded(context.Background(), rec.ID, &req, &gated)
				done <- outcome{rep, err}
			}()
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				s.progressM.Lock()
				prog := s.progress[rec.ID]
				s.progressM.Unlock()
				if prog != nil {
					break
				}
				if time.Now().After(deadline) {
					close(gate)
					t.Fatal("job progress never registered")
				}
			}
			// The response headers arrive with the snapshot frame, after
			// the handler subscribed.
			sresp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/stream")
			close(gate)
			if err != nil {
				t.Fatal(err)
			}
			defer sresp.Body.Close()
			var frames []progressEvent
			sc := bufio.NewScanner(sresp.Body)
			for sc.Scan() {
				if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
					var ev progressEvent
					if err := json.Unmarshal([]byte(line), &ev); err != nil {
						t.Fatalf("bad frame %q: %v", line, err)
					}
					frames = append(frames, ev)
				}
			}
			out := <-done
			if out.err != nil {
				t.Fatal(out.err)
			}
			if len(frames) != 1+8 {
				t.Fatalf("got %d frames, want the snapshot plus one per shard: %+v", len(frames), frames)
			}
			for i, ev := range frames {
				if ev.Done != i || math.IsInf(ev.PrefixMaxAbsT, 0) || math.IsNaN(ev.PrefixMaxAbsT) {
					t.Fatalf("frame %d: %+v", i, ev)
				}
			}
			last := frames[len(frames)-1]
			if !last.Final || last.PrefixShards != last.Total ||
				math.Float64bits(last.PrefixMaxAbsT) != math.Float64bits(out.rep.MaxAbsT) {
				t.Fatalf("final frame %+v, verdict max_abs_t %v", last, out.rep.MaxAbsT)
			}
		})
	}
}

// TestJobsAsyncAndStream: the async job API — submit returns 202 with the
// pending record, the SSE stream delivers per-shard progress frames, the
// record converges to done with a verdict, and a resubmission returns the
// terminal record.
func TestJobsAsyncAndStream(t *testing.T) {
	st, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: st})
	req := smallDES(32)
	req.Shards = 8
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobstore.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || rec.ID == "" {
		t.Fatalf("submit: status %d rec %+v err %v", resp.StatusCode, rec, err)
	}

	// Stream progress while the job runs. If the job already finished, the
	// stream degrades to a single terminal snapshot frame — still final.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var frames []progressEvent
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev progressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, ev)
	}
	if len(frames) == 0 {
		t.Fatal("stream delivered no frames")
	}
	prevDone := -1
	for _, ev := range frames {
		if ev.Total != 8 {
			t.Fatalf("frame total %d, want 8: %+v", ev.Total, ev)
		}
		if ev.Done < prevDone {
			t.Fatalf("progress went backwards: %+v", frames)
		}
		prevDone = ev.Done
	}

	// The record converges to done with a leak verdict.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == jobstore.StateDone {
			break
		}
		if rec.State == jobstore.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", rec)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var verdict AssessResponse
	if err := json.Unmarshal(rec.Verdict, &verdict); err != nil || !verdict.Leak {
		t.Fatalf("verdict %s: err %v", rec.Verdict, err)
	}

	// Resubmission of the completed job returns the terminal record.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var replay jobstore.Record
	err = json.NewDecoder(resp.Body).Decode(&replay)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || replay.State != jobstore.StateDone {
		t.Fatalf("replay: status %d rec %+v err %v", resp.StatusCode, replay, err)
	}

	// The listing includes the job; unknown ids are 404.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []*jobstore.Record `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || len(listing.Jobs) != 1 || listing.Jobs[0].ID != rec.ID {
		t.Fatalf("listing: %+v err %v", listing, err)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
	s.Close()
}

// TestRecoverResumesIncompleteJobs: a daemon restarted over a store holding
// an incomplete job re-runs it to the same verdict without a new submission
// — the crash/restart contract exercised end to end in-process.
func TestRecoverResumesIncompleteJobs(t *testing.T) {
	req := smallDES(32)
	req.Shards = 8
	canon, err := canonicalRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	id := jobstore.JobID(canon)

	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Create(id, canon, 8); err != nil {
		t.Fatal(err)
	}
	if err := st.SetRunning(id); err != nil {
		t.Fatal(err)
	}

	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st2})
	n, err := s.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover resumed %d jobs, err %v", n, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec, err := st2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == jobstore.StateDone {
			var verdict AssessResponse
			if err := json.Unmarshal(rec.Verdict, &verdict); err != nil || !verdict.Leak {
				t.Fatalf("recovered verdict %s: err %v", rec.Verdict, err)
			}
			break
		}
		if rec.State == jobstore.StateFailed || time.Now().After(deadline) {
			t.Fatalf("recovered job did not complete: %+v", rec)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.Close()
}
