// Command perfbench is the verdict benchmark of the desmask repository. It
// prices one leakage verdict — does a compiled DES program's per-cycle energy
// still leak its key? — in host seconds, on three workloads:
//
//	tvla-bmask2-gang  order-2 TVLA of boolean-masked DES on the gang engine
//	keyrec-des-cpa    full-key CPA on unprotected DES (materialized traces)
//	leakd-mixed       the leakd HTTP service with a durable job store
//
// Every layer is timed from outside, around calls into its public functions;
// the program under test is not modified. With -trace 0 the run reports the
// end-to-end metrics; with -trace 1 it reports the per-layer breakdown,
// measured in a traced phase after an untraced one (their difference is the
// tracing overhead). The last line of standard output is the result object.
//
// Run it through run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload tvla-bmask2-gang --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"desmask/internal/desprog"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"verdict_tail_s", "s"},
	{"verdicts_per_s", "1/s"},
	{"alloc_mb_per_verdict", "MB"},
	{"sim_cycles", "count"},
	{"energy_uj", "uJ"},
	{"pass_ratio", "ratio"},
}

// perLayer are the metrics of single layers, reported by the traced run. A
// workload that does not load a layer reports 0 for it.
var perLayer = []metricDef{
	{"compiler.build_s", "s"},
	{"compiler.instrs", "count"},
	{"compiler.secure_instrs", "count"},
	{"leakstat.window_s", "s"},
	{"leakstat.shard_s", "s"},
	{"leakstat.accumulate_s", "s"},
	{"leakstat.fold_s", "s"},
	{"leakstat.encode_s", "s"},
	{"leakstat.encode_bytes", "bytes"},
	{"leakstat.state_bytes", "bytes"},
	{"sim.exec_s", "s"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.cycles_per_verdict", "count"},
	{"sim.gang_useful_ratio", "ratio"},
	{"sim.alloc_kb_per_trace", "KB"},
	{"dpa.collect_s", "s"},
	{"dpa.attack_s", "s"},
	{"dpa.trace_mb", "MB"},
	{"dpa.boxes_recovered", "count"},
	{"jobstore.create_s", "s"},
	{"jobstore.put_shard_s", "s"},
	{"jobstore.complete_s", "s"},
	{"jobstore.get_s", "s"},
	{"jobstore.bytes_per_verdict", "bytes"},
	{"server.fresh_s", "s"},
	{"server.replay_s", "s"},
	{"server.custom_s", "s"},
	{"server.inner_s", "s"},
	{"server.overhead_s", "s"},
	{"server.stage_compile_s", "s"},
	{"server.stage_window_s", "s"},
	{"server.stage_assess_s", "s"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.replay_share", "ratio"},
	{"process.cpu_s_per_verdict", "s"},
	{"process.gc_per_verdict", "count"},
	{"process.gc_pause_s", "s"},
	{"process.peak_rss_mb", "MB"},
	{"trace.verdict_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.coverage", "ratio"},
}

// Run is one benchmark invocation: its inputs, the metrics it measured and
// the outcome of its correctness checks.
type Run struct {
	Workload string
	Seed     int64
	Window   time.Duration // measured window (halved per phase when traced)
	Traced   bool
	Dir      string // working directory inside the checkout
	T        *Tracer

	mu        sync.Mutex
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
	env       map[string]any
}

// Set records a metric value.
func (r *Run) Set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// Verdict counts one attempted verdict and, when err is non-nil, one that
// failed a check.
func (r *Run) Verdict(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// Problem records a failed run-level check (not tied to one verdict).
func (r *Run) Problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Note adds a line to the human-readable report.
func (r *Run) Note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

type workloadFn func(r *Run) error

var workloads = map[string]workloadFn{
	"tvla-bmask2-gang": runTVLA,
	"keyrec-des-cpa":   runKeyrec,
	"leakd-mixed":      runLeakd,
}

// hardLimit stops new verdicts so that a whole run ends within three minutes.
const hardLimit = 150 * time.Second

var runStart = time.Now()

func main() { os.Exit(run()) }

// run performs one benchmark invocation and returns the process exit code.
func run() int {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload input seed")
	seconds := flag.Float64("seconds", 20, "measured window per run, in seconds")
	traced := flag.Int("trace", 0, "1 = report the per-layer breakdown from a traced run")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &Run{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Traced:   *traced == 1,
		Dir:      dir,
		T:        NewTracer(),
		metrics:  map[string]float64{},
	}
	r.env = map[string]any{
		"workload":   r.Workload,
		"seed":       r.Seed,
		"seconds":    *seconds,
		"trace":      *traced,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"store_fs":   fsType(dir),
	}
	steal0, stealOK := stealSeconds()
	if err := checkPaperRow(r); err != nil {
		r.Problem("paper energy row: %v", err)
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.Workload, err)
		return 1
	}
	if steal1, ok := stealSeconds(); ok && stealOK {
		// CPU time the hypervisor gave to other guests while this run
		// wanted it: the usual cause of an outlying run on a shared host.
		r.env["cpu_steal_s"] = steal1 - steal0
	}
	if r.Traced {
		path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.json", r.Workload, r.Seed))
		if err := r.T.WriteFile(path); err != nil {
			r.Problem("writing spans: %v", err)
		} else {
			r.Note("spans written to %s", path)
		}
	}
	if err := r.report(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// report prints the human-readable table and, last, the result object.
func (r *Run) report(w *os.File) error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	if r.attempted == 0 {
		return fmt.Errorf("no verdict was attempted")
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	failRatio := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "# %s seed=%d trace=%v verdicts=%d failed=%d fail_ratio=%g\n",
		r.Workload, r.Seed, r.Traced, r.attempted, r.failed, failRatio)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %18.6f %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	env, _ := json.Marshal(map[string]any{"run": r.env})
	fmt.Fprintf(w, "%s\n", env)
	res, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", res)
	return nil
}

// closedLoop runs fn on clients goroutines, each starting its next call only
// after its previous one returned. No call starts once window has elapsed
// and minN calls have started, or once hardLimit has passed since the
// process started. It returns the number of completed calls and the time
// from the start of the loop to the last completion.
func closedLoop(clients int, window time.Duration, minN int, fn func(client, seq int)) (int, time.Duration) {
	start := time.Now()
	var (
		mu   sync.Mutex
		done int
		last time.Duration
		next int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				el := time.Since(start)
				if (el >= window && next >= minN) || time.Since(runStart) > hardLimit {
					mu.Unlock()
					return
				}
				seq := next
				next++
				mu.Unlock()
				fn(c, seq)
				mu.Lock()
				done++
				last = time.Since(start)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return done, last
}

// procSnap is a process-level resource reading.
type procSnap struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func snapshot() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{cpu: cpu, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// setProcess records the process.* layer over n verdicts since a snapshot.
func (r *Run) setProcess(since procSnap, n int) {
	now := snapshot()
	per := float64(max(n, 1))
	r.Set("process.cpu_s_per_verdict", (now.cpu-since.cpu).Seconds()/per)
	r.Set("process.gc_per_verdict", float64(now.numGC-since.numGC)/per)
	r.Set("process.gc_pause_s", float64(now.pauseNs-since.pauseNs)/1e9/per)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.Set("process.peak_rss_mb", float64(ru.Maxrss)/1024)
}

// timeSetups times n cold starts of the workload, one call of setup each.
func timeSetups(n int, setup func() (time.Duration, error)) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// lateSetups runs the second half of a run's set-ups once its measured
// window is over and appends their times, so that set-up time is sampled
// at both ends of the run rather than in one burst at its start.
func lateSetups(setups []float64, n int, setup func() (time.Duration, error)) ([]float64, error) {
	late, err := timeSetups(n-len(setups), setup)
	return append(setups, late...), err
}

// allocMB is the heap allocated between two snapshots, in MB.
func allocMB(a, b procSnap) float64 { return float64(b.totalAlloc-a.totalAlloc) / 1e6 }

// allocKBPerTrace is the heap allocated between two snapshots per trace, in KB.
func allocKBPerTrace(a, b procSnap, traces int) float64 {
	return float64(b.totalAlloc-a.totalAlloc) / 1e3 / float64(max(traces, 1))
}

// stealSeconds reads the machine's total stolen CPU time from /proc/stat.
func stealSeconds() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	return ticks / 100, err == nil // USER_HZ
}

// fsType names the filesystem holding dir (where leakd-mixed keeps its store).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// zeroLayers reports 0 for every per-layer metric whose prefix names a layer
// the workload does not load (its prediction there is "no change").
func (r *Run) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				r.Set(d.Name, 0)
			}
		}
	}
}

// setEndToEnd records the end-to-end metrics of a run with tracing off:
// set-up and verdict latencies (median, tail), completed verdicts per
// second of the measured window, heap allocated per verdict, and the
// modelled cycles and energy of one encryption of the workload's program m.
func (r *Run) setEndToEnd(m *desprog.Machine, setups, lat []float64, allocMB float64, completed int, elapsed time.Duration) error {
	r.Set("setup_s", Median(setups))
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	r.Note("setup_s is the median of %d set-ups: min %.4f, q1 %.4f, q3 %.4f, max %.4f s",
		len(s), s[0], s[len(s)/4], s[3*len(s)/4], s[len(s)-1])
	r.Set("verdict_s", Median(lat))
	tail, ok := TailPercentile(lat)
	if !ok {
		r.Problem("only %d verdicts: no tail percentile with %d samples beyond it", len(lat), tailBeyond)
	}
	r.Set("verdict_tail_s", tail.Value)
	r.Note("verdict_tail_s is p%.1f of %d verdict latencies (%d beyond it)", tail.Percentile, tail.N, tail.Beyond)
	r.Set("verdicts_per_s", float64(completed)/elapsed.Seconds())
	r.Set("alloc_mb_per_verdict", allocMB)
	r.Set("pass_ratio", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	cycles, uj, err := encryptOnce(m)
	if err != nil {
		return err
	}
	r.Set("sim_cycles", float64(cycles))
	r.Set("energy_uj", uj)
	return nil
}

// setTraceSummary records the traced verdict median, the tracing overhead
// against the untraced phase and the share of the wall time of the spans
// named root that the layer spans below them account for; that share must
// be at least 95%.
func (r *Run) setTraceSummary(untraced, traced []float64, root string) {
	b := r.noteBreakdown(root)
	if b.Coverage < 0.95 {
		r.Problem("layer spans cover %.2f%% of %q wall time, under 95%%", 100*b.Coverage, root)
	}
	tv := Median(traced)
	r.Set("trace.verdict_s", tv)
	r.Set("trace.overhead_s", tv-Median(untraced))
	r.Set("trace.coverage", b.Coverage)
}

// noteBreakdown adds the layer breakdown of the spans rooted at root to the
// report: each layer's self time and its share of all layer self time (the
// shares of concurrent layers are of busy time, not wall time).
func (r *Run) noteBreakdown(root string) LayerBreakdown {
	b := Breakdown(r.T.Spans(), root)
	type kv struct {
		name string
		d    time.Duration
	}
	var rows []kv
	var busy time.Duration
	for n, d := range b.Self {
		rows = append(rows, kv{n, d})
		busy += d
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	r.Note("breakdown of %q spans: %.3f s wall, layer spans account for %.2f%% of it; dominant layer %s",
		root, b.Wall.Seconds(), 100*b.Coverage, b.Dominant)
	for _, row := range rows {
		r.Note("  self %-22s %10.4f s  %6.2f%% of layer time", row.name, row.d.Seconds(), 100*row.d.Seconds()/busy.Seconds())
	}
	return b
}
