// Command bench is the repository's benchmark: four closed-loop workloads
// over the public API, end-to-end metrics for each, a per-layer ledger of
// counts, and a traced run that adds per-layer times. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the root
// of the repository lists them with their regression bounds.
//
//	go run ./bench -seed 1                          # all four workloads, end to end
//	go run ./bench -seed 1 -trace 1                 # the traced run: per-layer metrics, span files
//	go run ./bench -workload file_rw -seed 7 -seconds 24 -trace 0
//	go run ./bench -compare a1.json a2.json a3.json -- b1.json b2.json b3.json
//	go run ./bench -smoke                           # every path in under ten seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // measured time per workload, split into rounds
	trace   bool
	smoke   bool
	out     string
	tmp     string // scratch directory, removed on every exit path
}

// Round shape: an untraced run measures three rounds; a traced run
// alternates three untraced rounds with three traced ones, so that the
// tracing overhead is a difference taken inside one process.
const (
	untracedRounds = 3
	defaultSeconds = 24
	// A workload is set up at least minSetups times, and again until
	// setupBudget is spent or maxSetups is reached.
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 400 * time.Millisecond
	// tracedOpsKept is how many operations' spans a traced run keeps.
	tracedOpsKept = 20000
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four, one after another)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured seconds per workload, split into rounds")
		trace    = fs.Int("trace", 0, "1: the traced run (per-layer metrics, span files); 0: end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "0.3 s rounds, both the untraced and the traced run of every workload")
		out      = fs.String("out", ".bench_out", "directory for the result file, the span files and scratch files")
		compare  = fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -help")
		return 2
	}
	selected := workloads
	if *workload != "" {
		selected = nil
		for _, d := range workloads {
			if d.name == *workload {
				selected = []workloadDef{d}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: no workload %q\n", *workload)
			return 2
		}
	}
	// One processor for the Go scheduler, unless the caller asks for more
	// through GOMAXPROCS: every workload is a chain of goroutines that
	// wait for each other, and on two vCPUs half of its CPU time goes
	// into waking the other thread up, at a cost that depends on where
	// the hypervisor put the vCPUs that hour (README.md, "Findings").
	if os.Getenv("GOMAXPROCS") == "" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// An interrupted run leaves no scratch files either.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	defer close(done)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, out: *out, tmp: tmp}
	modes := []bool{o.trace}
	label := fmt.Sprint(*trace)
	if o.smoke {
		o.seconds = 0.9
		modes, label = []bool{false, true}, "01"
	}
	res := resultFile{Env: environment(o)}
	for _, def := range selected {
		for _, traced := range modes {
			o.trace = traced
			r, err := runWorkload(def, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
				return 1
			}
			res.Workloads = append(res.Workloads, r)
			printWorkload(stdout, r)
		}
	}
	sel := "all"
	if *workload != "" {
		sel = *workload
	}
	path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%s.json", sel, *seed, label))
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "result file:", path)
	// The last line of standard output is the last workload's result.
	for _, r := range res.Workloads {
		fmt.Fprintln(stdout, r.contractLine())
	}
	return 0
}

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Traced   bool   `json:"traced"`
	Loop     string `json:"loop"`
	Clients  int    `json:"clients"`

	WarmupSeconds float64 `json:"warmup_seconds"`
	RoundSeconds  float64 `json:"round_seconds"`
	KeepEvery     uint64  `json:"trace_keep_every,omitempty"`

	Correct     bool    `json:"correct"`
	Attempted   uint64  `json:"attempted"`
	Failed      uint64  `json:"failed"`
	FailedShare float64 `json:"failed_share"`

	EndToEnd map[string]metricValue `json:"end_to_end"`
	// PerLayer holds the count metrics always and the time metrics of a
	// traced run.
	PerLayer map[string]metricValue `json:"per_layer"`

	Rounds       []roundResult          `json:"rounds"`
	SetupSeconds []float64              `json:"setup_seconds"`
	Spans        map[string]spanSummary `json:"spans,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
}

// spanSummary is one row of the traced run's share table.
type spanSummary struct {
	Count     int     `json:"count"`
	P50Us     float64 `json:"p50_us"`
	MeanUs    float64 `json:"mean_us"`
	SelfP50Us float64 `json:"self_p50_us"`
	// SelfShare is this span's total self time over the total time of
	// the traced operations.
	SelfShare float64 `json:"self_share"`
}

type resultFile struct {
	Env       env              `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// contractLine is the one-line result the benchmark's driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r workloadResult) contractLine() string {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // a NaN or an infinity among the metrics: a bug here
	}
	return string(b)
}

// runWorkload sets one workload up, measures it, checks it and tears it
// down.
func runWorkload(def workloadDef, o options) (workloadResult, error) {
	res := workloadResult{Workload: def.name, Why: def.why, Traced: o.trace, Loop: "closed"}
	warmup, probeTime, probeN, budget := 2*time.Second, 250*time.Millisecond, 256, setupBudget
	if o.smoke {
		warmup, probeTime, probeN, budget = 100*time.Millisecond, 20*time.Millisecond, 32, 0
	}
	rounds := untracedRounds
	if o.trace {
		rounds *= 2
	}
	roundLen := time.Duration(o.seconds / float64(rounds) * float64(time.Second))
	res.WarmupSeconds, res.RoundSeconds = warmup.Seconds(), roundLen.Seconds()

	// Set up repeatedly and report the median: one set-up takes a few
	// milliseconds, which on its own is mostly noise. The last world
	// built is the one measured.
	var w *world
	for spent := time.Duration(0); len(res.SetupSeconds) < minSetups ||
		(spent < budget && len(res.SetupSeconds) < maxSetups); {
		if w != nil {
			w.close()
		}
		dir, err := os.MkdirTemp(o.tmp, def.name+"-")
		if err != nil {
			return res, err
		}
		cfg := buildConfig{seed: o.seed, dir: dir}
		if o.trace {
			cfg.tr = newTracer()
		}
		// Every set-up starts from a collected heap, so that none pays
		// for the garbage of the one before.
		runtime.GC()
		start := time.Now()
		if w, err = def.build(cfg); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		res.SetupSeconds = append(res.SetupSeconds, took.Seconds())
		w.tr = cfg.tr
	}
	closeWorld := sync.OnceFunc(w.close)
	defer closeWorld()
	res.Clients = w.clients
	clients := newClients(w, o.seed)

	warm := runRound(w, clients, warmup, false)
	if o.trace {
		tracedOps := warm.OpsPerS * roundLen.Seconds() * untracedRounds
		w.tr.keepEvery = uint64(math.Max(1, math.Ceil(tracedOps/tracedOpsKept)))
		res.KeepEvery = w.tr.keepEvery
	}
	before := takeLedger(w)
	for i := 0; i < rounds; i++ {
		r := runRound(w, clients, roundLen, o.trace && i%2 == 1)
		res.Rounds = append(res.Rounds, r)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	after := takeLedger(w)
	heap := liveHeapMB()
	if res.Attempted == 0 {
		return res, fmt.Errorf("no operation completed in %v", roundLen)
	}

	res.Correct = res.Failed == 0
	if w.verify != nil {
		ok, err := w.verify()
		if err != nil {
			return res, fmt.Errorf("oracle could not run: %w", err)
		}
		res.Correct = res.Correct && ok
	}
	closeWorld()

	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	values := map[string]float64{"live_heap_mb": heap, "setup_s": median(res.SetupSeconds)}
	for name, f := range perRound {
		values[name] = median(pick(res.Rounds, false, f))
	}
	res.EndToEnd = map[string]metricValue{}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = metricValue{values[m.name], m.unit}
	}

	layer := ledgerCounts(w, before, after, res.Attempted)
	layer["camelot.recovery_us_per_record"] = w.recoveryUsPerRecord
	if o.trace {
		spans := w.tr.side
		for _, c := range clients {
			spans = append(spans, c.spans...)
		}
		stats := analyse(spans)
		res.TraceFile = filepath.Join(o.out, "trace-"+def.name+".json")
		if err := writeTrace(res.TraceFile, def.name, o.seed, w.tr.keepEvery, spans); err != nil {
			return res, err
		}
		probes, err := runProbes(probeConfig{d: probeTime, n: probeN, dir: o.tmp})
		if err != nil {
			return res, err
		}
		for name, v := range probes {
			layer[name] = v
		}
		// Self times add up to the traced operations' total time.
		var total int64
		for _, st := range stats {
			total += st.selfNs
		}
		res.Spans = map[string]spanSummary{}
		for n, st := range stats {
			if st.count > 0 {
				res.Spans[spanNames[n]] = spanSummary{st.count, st.p50Us, st.meanUs, st.selfUs, float64(st.selfNs) / float64(total)}
			}
		}
		for _, sm := range spanMetrics {
			layer[sm.metric] = stats[sm.span].p50Us
		}
		layer["pager.framepool_self_us"] = stats[spanPagerStoreRead].selfUs
		if inv := stats[spanRPCInvoke]; inv.count > 0 {
			layer["netmsg.relay_us"] = inv.p50Us - layer["rpc.local_call_us"]
		}
		plain := median(pick(res.Rounds, false, perRound["ops_per_s"]))
		traced := median(pick(res.Rounds, true, perRound["ops_per_s"]))
		if plain > 0 {
			layer["bench.trace_overhead_pct"] = 100 * (plain - traced) / plain
		}
	}
	res.PerLayer = map[string]metricValue{}
	for _, m := range perLayer {
		if v, ok := layer[m.name]; ok {
			res.PerLayer[m.name] = metricValue{v, m.unit}
		} else if o.trace {
			// A span this workload never opens: the layer did nothing.
			res.PerLayer[m.name] = metricValue{0, m.unit}
		}
	}
	return res, nil
}

func printWorkload(w io.Writer, r workloadResult) {
	mode := "end-to-end run"
	if r.Traced {
		mode = fmt.Sprintf("traced run, every %d. operation kept", r.KeepEvery)
	}
	fmt.Fprintf(w, "\n== %s: %s\n   %d client(s), closed loop, %d rounds x %.2f s after %.1f s warm-up, %s\n",
		r.Workload, r.Why, r.Clients, len(r.Rounds), r.RoundSeconds, r.WarmupSeconds, mode)
	fmt.Fprintf(w, "   attempted %d, failed %d (failed_share %g), correct %v\n", r.Attempted, r.Failed, r.FailedShare, r.Correct)
	if !r.Traced {
		fmt.Fprintf(w, "   %-32s %16s  %-6s %s\n", "end-to-end metric", "median", "unit", "rounds")
		for _, m := range endToEnd {
			fmt.Fprintf(w, "   %-32s %16.4f  %-6s %s\n", m.name, r.EndToEnd[m.name].Value, m.unit, roundValues(r, m.name))
		}
	}
	fmt.Fprintf(w, "   %-32s %16s  %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "   %-32s %16.4f  %s\n", m.name, v.Value, m.unit)
		} else {
			fmt.Fprintf(w, "   %-32s %16s  %s\n", m.name, "(-trace 1)", m.unit)
		}
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "   %-32s %10s %12s %12s %12s %8s\n", "span", "count", "p50 us", "mean us", "self p50 us", "share")
		for _, name := range spanNames {
			if s, ok := r.Spans[name]; ok {
				fmt.Fprintf(w, "   %-32s %10d %12.2f %12.2f %12.2f %7.1f%%\n", name, s.Count, s.P50Us, s.MeanUs, s.SelfP50Us, 100*s.SelfShare)
			}
		}
		fmt.Fprintln(w, "   spans:", r.TraceFile)
	}
}

// roundValues lists a metric's raw values, where it has several.
func roundValues(r workloadResult, name string) string {
	if name == "setup_s" {
		return strings.Trim(fmt.Sprintf("%.4f", r.SetupSeconds), "[]")
	}
	if f, ok := perRound[name]; ok {
		return strings.Trim(fmt.Sprintf("%.2f", pick(r.Rounds, false, f)), "[]")
	}
	return ""
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// env records where and how a result was taken.
type env struct {
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	OSArch      string   `json:"os_arch"`
	Kernel      string   `json:"kernel"`
	IOBackends  []string `json:"iomgr_backends"`
	TempDirFS   string   `json:"temp_dir_filesystem"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"measured_seconds_per_workload"`
	Smoke       bool     `json:"smoke"`
	StartedUnix int64    `json:"started_unix"`
}

func environment(o options) env {
	backends := []string{"pool"}
	if uringAvailable(o.tmp) {
		backends = append(backends, "uring")
	}
	return env{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		OSArch:      runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:      kernelRelease(),
		IOBackends:  backends,
		TempDirFS:   filesystemOf(o.tmp),
		Seed:        o.seed,
		Seconds:     o.seconds,
		Smoke:       o.smoke,
		StartedUnix: time.Now().Unix(),
	}
}
