package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/server"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// leakd-mixed: the leakd service with a durable job store, served on
// loopback and driven by two closed-loop clients that each wait for their
// verdict. Every request asks for one shard worker; the server runs two
// assessments at a time.
const (
	leakdClients     = 2
	leakdConcurrent  = 2
	leakdTraces      = 256
	leakdBudget      = 25_000
	leakdCustom      = 64 // traces of a submitted-source request
	leakdSetups      = 31
	leakdMinReqs     = 16 // at least tailBeyond+1 fresh requests
	leakdMinTraced   = 12 // every client reaches each request class once
	leakdReplays     = 2  // fresh verdicts re-run in-process per traced run
	leakdExecReplays = 8  // shards of each whose simulation is timed alone
	spanHeader       = "X-Perfbench-Span"
)

// leakdPattern is each client's repeating request mix: 7 fresh DES
// verdicts, 2 resubmissions of completed requests, 1 never-seen source.
// The shares are an assumption: no recorded leakd traffic exists to take
// them from. Fresh verdicts dominate because they are the service's work;
// replays and new sources are there so their paths carry load.
var leakdPattern = []byte("FFRFFCFFRF")

// customSource is a MiniC program the program cache has not seen: the
// constant c makes every submission a distinct source.
func customSource(c uint32) string {
	return fmt.Sprintf(`
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
	r0 = (key[0] ^ pt[0]) + %d;
	r1 = key[1] ^ pt[1];
	emit_output();
}
`, c)
}

func freshBody(seed int64, traces int) []byte {
	b, _ := json.Marshal(map[string]any{
		"kernel": "des", "policy": "none", "traces": traces, "seed": seed,
		"workers": 1, "max_cycles": leakdBudget,
	})
	return b
}

// warmBody asks for shard 0 of a small DES assessment.
func warmBody() []byte {
	var req map[string]any
	json.Unmarshal(freshBody(-1, 8), &req)
	req["shard"] = 0
	b, _ := json.Marshal(req)
	return b
}

func customBody(c uint32) []byte {
	b, _ := json.Marshal(map[string]any{
		"source": customSource(c), "secret_global": "key", "public_global": "pt",
		"output_global": "out", "output_len": 2, "secret": []uint32{0xDEAD, 0xBEEF},
		"public": []uint32{1, 2}, "policy": "none", "traces": leakdCustom, "seed": int64(c), "workers": 1,
	})
	return b
}

// leakdServer is one started service: store, server, loopback listener.
type leakdServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// handle wraps the service handler so a traced run sees the server-side
// interval of each request as a child of the client's span; the response
// names that child so the client can hang the server's execute time below it.
func handle(r *Run, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		sp := r.T.Begin("server.handle", parent, -1)
		w.Header().Set(spanHeader, strconv.Itoa(sp))
		h.ServeHTTP(w, req)
		r.T.End(sp)
	})
}

func leakdStart(r *Run, dir string) (*leakdServer, time.Duration, error) {
	start := time.Now()
	root := r.T.Begin("setup", -1, -1)
	defer r.T.End(root)
	sp := r.T.Begin("jobstore.open", root, -1)
	store, err := jobstore.Open(dir)
	r.T.End(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = r.T.Begin("server.start", root, -1)
	srv := server.New(server.Config{MaxConcurrent: leakdConcurrent, Store: store, Log: log.New(io.Discard, "", 0)})
	if _, err := srv.Recover(); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &leakdServer{
		srv: srv, served: make(chan struct{}),
		hs:     &http.Server{Handler: handle(r, srv.Handler())},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: leakdClients}, Timeout: 120 * time.Second},
	}
	go func() {
		s.hs.Serve(ln)
		close(s.served)
	}()
	r.T.End(sp)
	// Warm the program cache: the first DES request compiles and predecodes.
	// A shard request does that and persists nothing, so the set-up time
	// holds no fsync'd store write.
	sp = r.T.Begin("server.warm", root, -1)
	code, body, _, err := s.post("/v1/shard", warmBody(), -1)
	r.T.End(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up request: status %d: %s", code, body)
	}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *leakdServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// post sends one request to path. span, when >= 0, is the client span the
// server-side span should hang below; handled is the server-side span.
func (s *leakdServer) post(path string, body []byte, span int) (code int, out []byte, handled int, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, -1, err
	}
	defer resp.Body.Close()
	handled = -1
	if h, herr := strconv.Atoi(resp.Header.Get(spanHeader)); herr == nil {
		handled = h
	}
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, out, handled, err
}

// scrape reads the service's Prometheus counters: stage latency sums and
// counts and the program-cache totals.
func (s *leakdServer) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// leakdPhase is one measured window of the request mix.
type leakdPhase struct {
	fresh, replay, custom []float64 // client-timed latencies
	inner                 []float64 // AssessResponse.seconds of fresh requests
	cycles                []float64 // cycles_simulated of fresh requests
	done                  int
	elapsed               time.Duration
	alloc                 float64 // MB per completed request
	before, after         map[string]float64
	seeds                 []int64 // fresh request seeds, completion order
	maxT                  map[int64]float64
}

func leakdMeasure(r *Run, s *leakdServer, window time.Duration, minN int, phase int) (*leakdPhase, error) {
	ph := &leakdPhase{maxT: map[int64]float64{}}
	var err error
	if ph.before, err = s.scrape(); err != nil {
		return nil, err
	}
	var (
		mu        sync.Mutex
		completed [][]byte              // bodies of completed fresh requests
		first     = map[string][]byte{} // first response of each body
		perClient = make([]int, leakdClients)
	)
	rng := rand.New(rand.NewSource(sim.DeriveSeed(r.Seed, phase)))
	before := snapshot()
	ph.done, ph.elapsed = closedLoop(leakdClients, window, minN, func(c, seq int) {
		mu.Lock()
		class := leakdPattern[perClient[c]%len(leakdPattern)]
		perClient[c]++
		var body []byte
		switch {
		case class == 'R' && len(completed) > 0:
			body = completed[rng.Intn(len(completed))]
		case class == 'C':
			body = customBody(uint32(sim.DeriveSeed(r.Seed, 1000*phase+seq)))
		default:
			class = 'F'
		}
		seed := sim.DeriveSeed(r.Seed^int64(phase)<<40, seq) & (1<<62 - 1)
		if class == 'F' {
			body = freshBody(seed, leakdTraces)
		}
		mu.Unlock()

		root := -1
		switch class {
		case 'F':
			root = r.T.Begin("verdict", -1, seq)
		case 'R':
			root = r.T.Begin("request.replay", -1, seq)
		default:
			root = r.T.Begin("request.custom", -1, seq)
		}
		t0 := time.Now()
		code, resp, handled, err := s.post("/v1/assess", body, root)
		lat := time.Since(t0).Seconds()
		end := time.Since(r.T.t0)
		r.T.End(root)

		var ar server.AssessResponse
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("request %d (%c): status %d: %.200s", seq, class, code, resp)
		}
		if err == nil {
			err = json.Unmarshal(resp, &ar)
		}
		if err == nil && class != 'R' && handled >= 0 {
			// The server reports its own execute time, which ends just
			// before it writes the response.
			r.T.Add("server.execute", handled, seq, end, time.Duration(ar.Seconds*float64(time.Second)))
		}
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			switch class {
			case 'F':
				if !ar.Leak {
					err = fmt.Errorf("request %d: unprotected DES verdict says leak=false (max|t|=%g)", seq, ar.MaxAbsT)
					break
				}
				ph.fresh = append(ph.fresh, lat)
				ph.inner = append(ph.inner, ar.Seconds)
				ph.cycles = append(ph.cycles, float64(ar.CyclesSimulated))
				ph.seeds = append(ph.seeds, seed)
				ph.maxT[seed] = ar.MaxAbsT
				completed = append(completed, body)
				first[string(body)] = resp
			case 'R':
				if !bytes.Equal(resp, first[string(body)]) {
					err = fmt.Errorf("request %d: replay differs from the first response", seq)
					break
				}
				ph.replay = append(ph.replay, lat)
			default:
				ph.custom = append(ph.custom, lat)
			}
		}
		r.Verdict(err)
	})
	ph.alloc = allocMB(before, snapshot()) / float64(max(ph.done, 1))
	if ph.after, err = s.scrape(); err != nil {
		return nil, err
	}
	return ph, nil
}

// delta is the growth of a scraped counter over the phase.
func (ph *leakdPhase) delta(name string) float64 { return ph.after[name] - ph.before[name] }

func runLeakd(r *Run) error {
	// Each set-up starts a service on a store of its own; the last one
	// started before the window serves it.
	var s *leakdServer
	stores := 0
	start := func() (*leakdServer, time.Duration, error) {
		stores++
		return leakdStart(r, filepath.Join(r.Dir, fmt.Sprintf("store-%d", stores)))
	}
	setups, err := timeSetups(leakdSetups/2+1, func() (d time.Duration, err error) {
		if s != nil {
			s.stop()
		}
		s, d, err = start()
		return d, err
	})
	if err != nil {
		return err
	}
	defer func() { s.stop() }()

	window := r.Window
	if r.Traced {
		window /= 2
	}
	snap := snapshot()
	minReqs := leakdMinReqs
	if r.Traced {
		minReqs = leakdMinTraced
	}
	ph, err := leakdMeasure(r, s, window, minReqs, 0)
	if err != nil {
		return err
	}
	r.Note("%d requests: %d fresh, %d replays, %d custom sources, %d failed",
		ph.done, len(ph.fresh), len(ph.replay), len(ph.custom), r.failed)
	r.Note("job store on %s under the checkout", r.env["store_fs"])
	if len(ph.fresh) == 0 {
		return fmt.Errorf("no fresh verdict completed")
	}

	if !r.Traced {
		// verdict_s and its tail cover fresh requests only, so millisecond
		// replays cannot make the distribution bimodal; throughput and
		// allocation count requests of every class.
		setups, err := lateSetups(setups, leakdSetups, func() (time.Duration, error) {
			late, d, err := start()
			if err == nil {
				late.stop()
			}
			return d, err
		})
		if err != nil {
			return err
		}
		m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyNone}, energy.DefaultConfig())
		if err != nil {
			return err
		}
		return r.setEndToEnd(m, setups, ph.fresh, ph.alloc, ph.done, ph.elapsed)
	}

	// Server-side layers from the untraced phase.
	r.setProcess(snap, ph.done)
	fresh, inner := Median(ph.fresh), Median(ph.inner)
	r.Set("server.fresh_s", fresh)
	r.Set("server.replay_s", Median(ph.replay))
	r.Set("server.custom_s", Median(ph.custom))
	r.Set("server.inner_s", inner)
	r.Set("server.overhead_s", fresh-inner)
	for _, st := range []string{"compile", "window", "assess"} {
		lbl := fmt.Sprintf("{stage=%q}", st)
		sum := ph.delta("leakd_stage_latency_seconds_sum" + lbl)
		n := ph.delta("leakd_stage_latency_seconds_count" + lbl)
		r.Set("server.stage_"+st+"_s", sum/max(n, 1))
	}
	hits, misses := ph.delta("leakd_program_cache_hits_total"), ph.delta("leakd_program_cache_misses_total")
	r.Set("server.cache_hit_ratio", hits/max(hits+misses, 1))
	// Requests the service completed without executing were answered from
	// the store: the share of requests with the repeated-input property.
	completed := ph.delta(`leakd_jobs_total{state="completed"}`)
	executed := ph.delta(`leakd_stage_latency_seconds_count{stage="assess"}`)
	r.Set("server.replay_share", (completed-executed)/max(completed, 1))
	r.Set("sim.cycles_per_verdict", Median(ph.cycles))
	r.Set("sim.gang_useful_ratio", 0)

	// Traced phase: client spans around every request, the server's own
	// interval and execute time below them.
	r.T.Enable()
	tp, err := leakdMeasure(r, s, window, leakdMinTraced, 1)
	if err != nil {
		return err
	}
	// Replay single layers in-process on this run's own inputs.
	if err := leakdReplayLayers(r, tp); err != nil {
		return err
	}
	r.zeroLayers("dpa.")
	r.Note("leakstat.*, sim.exec_s and jobstore.* re-run %d of this run's fresh verdicts in-process; leakstat.accumulate_s is derived: leakstat.shard_s - sim.exec_s", leakdReplays)
	// The client's verdict span holds only the server's own handling of the
	// same request, so its coverage is noted, not checked; the layers are
	// divided up in the in-process replays.
	r.noteBreakdown("verdict")
	r.setTraceSummary(ph.fresh, tp.fresh, "replay.verdict")
	return nil
}

// leakdReplayLayers re-runs up to leakdReplays fresh verdicts of the traced
// phase in-process, calling the public functions the service calls in the
// order it calls them — store create, window, per shard AssessShard then
// PutShard, fold, complete, get — on a second store in the same directory
// tree. Each replayed verdict must reproduce the service's max |t|.
func leakdReplayLayers(r *Run, tp *leakdPhase) error {
	var m *desprog.Machine
	for i := 0; i < 3; i++ {
		sp := r.T.Begin("compiler.build", -1, -1)
		var err error
		m, err = desprog.NewFull(compiler.Options{Policy: compiler.PolicyNone}, energy.DefaultConfig())
		if err != nil {
			return err
		}
		m.Runner()
		r.T.End(sp)
	}
	setLayerCompiler(r, m)
	dir := filepath.Join(r.Dir, "replay-store")
	store, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	var nsPerCycle, simAlloc, encBytes, storeBytes []float64
	var stateBytes int
	for k, seed := range tp.seeds {
		if k == leakdReplays {
			break
		}
		rep, parts, err := replayVerdict(r, m, store, seed, k)
		if err != nil {
			return err
		}
		if rep.MaxAbsT != tp.maxT[seed] {
			r.Problem("in-process replay of seed %d: max|t| %g, service said %g", seed, rep.MaxAbsT, tp.maxT[seed])
		}
		stateBytes = rep.StateBytes
		storeBytes = append(storeBytes, float64(dirBytes(filepath.Join(dir, jobstore.JobID(freshBody(seed, leakdTraces))))))
		total := 0
		for _, p := range parts {
			sp := r.T.Begin("leakstat.encode", -1, k)
			b, err := p.MarshalBinary()
			r.T.End(sp)
			if err != nil {
				return err
			}
			total += len(b)
		}
		encBytes = append(encBytes, float64(total))
		src := leakstat.DESKeySource(m, fixedKey, fixedPlain, seed, leakdBudget)
		cfg := leakstat.Config{NumTraces: leakdTraces, Seed: seed, Workers: 1, Window: trace.Window{Start: rep.WindowStart, End: rep.WindowEnd}}
		for j := 0; j < leakdExecReplays; j++ {
			ns, kb, err := replayScalarExec(r, src, cfg, leakdExecReplays*k+j)
			if err != nil {
				return err
			}
			nsPerCycle = append(nsPerCycle, ns)
			simAlloc = append(simAlloc, kb)
		}
	}
	spans := r.T.Spans()
	shard, exec := Median(Durations(spans, "leakstat.shard")), Median(Durations(spans, "sim.exec"))
	r.Set("leakstat.window_s", Median(Durations(spans, "leakstat.window")))
	r.Set("leakstat.shard_s", shard)
	r.Set("leakstat.accumulate_s", shard-exec)
	r.Set("leakstat.fold_s", Median(Durations(spans, "leakstat.fold")))
	r.Set("leakstat.encode_s", Median(Durations(spans, "leakstat.encode")))
	r.Set("leakstat.encode_bytes", Median(encBytes))
	r.Set("leakstat.state_bytes", float64(stateBytes))
	r.Set("sim.exec_s", exec)
	r.Set("sim.host_ns_per_cycle", Median(nsPerCycle))
	r.Set("sim.alloc_kb_per_trace", Median(simAlloc))
	for _, name := range []string{"create", "put_shard", "complete", "get"} {
		r.Set("jobstore."+name+"_s", Median(Durations(spans, "jobstore."+name)))
	}
	r.Set("jobstore.bytes_per_verdict", Median(storeBytes))
	return os.RemoveAll(dir)
}

// replayVerdict is one fresh leakd verdict without HTTP, as a span tree
// rooted at "replay.verdict".
func replayVerdict(r *Run, m *desprog.Machine, store *jobstore.Store, seed int64, k int) (*leakstat.Report, []*leakstat.ShardAccum, error) {
	root := r.T.Begin("replay.verdict", -1, k)
	defer r.T.End(root)
	body := freshBody(seed, leakdTraces)
	id := jobstore.JobID(body)
	sp := r.T.Begin("jobstore.create", root, k)
	_, _, err := store.Create(id, body, leakdTraces/leakstat.DefaultShards)
	r.T.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = r.T.Begin("jobstore.set_running", root, k)
	err = store.SetRunning(id)
	r.T.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = r.T.Begin("leakstat.window", root, k)
	win, err := leakstat.DESMaskedWindow(m, fixedKey, fixedPlain, leakdBudget)
	r.T.End(sp)
	if err != nil {
		return nil, nil, err
	}
	src := leakstat.DESKeySource(m, fixedKey, fixedPlain, seed, leakdBudget)
	cfg := leakstat.Config{NumTraces: leakdTraces, Seed: seed, Workers: 1, Window: win}
	parts := make([]*leakstat.ShardAccum, leakstat.NumShards(cfg))
	for i := range parts {
		sp = r.T.Begin("leakstat.shard", root, k)
		parts[i], err = leakstat.AssessShard(context.Background(), src, cfg, i)
		r.T.End(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = r.T.Begin("jobstore.put_shard", root, k)
		err = store.PutShard(id, parts[i])
		r.T.End(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	sp = r.T.Begin("leakstat.fold", root, k)
	rep, err := leakstat.FoldReport(cfg, parts)
	r.T.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = r.T.Begin("jobstore.complete", root, k)
	verdict, err := json.Marshal(rep)
	if err == nil {
		err = store.Complete(id, verdict)
	}
	r.T.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = r.T.Begin("jobstore.get", root, k)
	_, err = store.Get(id)
	r.T.End(sp)
	return rep, parts, err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// windowSampler records each committed cycle's metered energy inside the
// window, as the scalar assessment path samples it.
type windowSampler struct {
	meter      *energy.Probe
	start, end uint64
	buf        []float64
}

func (p *windowSampler) OnCycle(ci cpu.CycleInfo) {
	if ci.Cycle >= p.start && ci.Cycle < p.end {
		p.buf[ci.Cycle-p.start] = p.meter.LastPJ()
	}
}

// replayScalarExec times the simulation and meter alone for shard k of cfg:
// its jobs go through Runner.RunBatch with a window-sampling meter probe,
// without the Welford accumulation. It returns host ns per simulated cycle
// and the heap the batch allocated per trace, in KB; the service is idle
// while it runs.
func replayScalarExec(r *Run, src leakstat.Source, cfg leakstat.Config, k int) (float64, float64, error) {
	n := leakstat.NumShards(cfg)
	fixed := leakstat.Assignment(cfg.Seed, cfg.NumTraces)
	lo, hi := leakstat.ShardRange(k%n, n, cfg.NumTraces)
	probe := &windowSampler{start: uint64(cfg.Window.Start), end: uint64(cfg.Window.End), buf: make([]float64, cfg.Window.Len())}
	probes := []cpu.Probe{probe}
	spec := sim.PerRunMeterProbes(func(m *energy.Probe) []cpu.Probe {
		probe.meter = m
		return probes
	})
	var jobs []sim.Job
	for i := lo; i < hi; i++ {
		job, err := src.Job(i, fixed[i])
		if err != nil {
			return 0, 0, err
		}
		job.Trace, job.Probe = false, spec
		jobs = append(jobs, job)
	}
	before := snapshot()
	sp := r.T.Begin("sim.exec", -1, k)
	t0 := time.Now()
	res, err := src.Runner.RunBatch(jobs, sim.Options{Workers: 1})
	d := time.Since(t0)
	r.T.End(sp)
	kb := allocKBPerTrace(before, snapshot(), len(jobs))
	if err != nil {
		return 0, 0, err
	}
	var cycles uint64
	for _, x := range res {
		cycles += x.Stats.Cycles
	}
	return float64(d.Nanoseconds()) / float64(max(cycles, 1)), kb, nil
}
