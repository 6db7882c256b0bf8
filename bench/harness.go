package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/mach"
)

// client is one closed-loop load generator: a goroutine that issues its
// next operation only after the previous one has returned.
type client struct {
	id  int
	rng *rand.Rand

	seq       uint64 // operations issued so far, all rounds
	attempted uint64 // this round
	failed    uint64 // this round
	lat       hist   // this round, ns

	// Tracing state; see trace.go.
	tr     *tracer
	single bool   // the workload's only client
	op     uint64 // current operation
	keep   bool   // the current operation's spans are recorded
	calls  uint64 // call spans opened by the current operation
	spans  []span
}

// world is one workload, set up and ready to run.
type world struct {
	clients int
	// op issues one operation for client c and checks its result.
	op func(c *client) bool
	// verify is the end-of-run oracle; nil when every result was
	// already checked by op. An error means the oracle could not run.
	verify func() (ok bool, err error)
	close  func()

	// What the ledger reads; see ledger.go. The last three are counts
	// only the workload can make.
	kernels             []*mach.Kernel
	disks               []*mach.Disk
	oolBytes            atomic.Uint64 // bytes sent out of line
	rpcFailed           atomic.Uint64 // calls that came back with an error
	recoveryUsPerRecord float64       // set by verify

	tr *tracer // nil in an untraced run
}

// buildConfig is what a workload's set-up gets.
type buildConfig struct {
	seed int64
	dir  string  // a fresh directory for the workload's files
	tr   *tracer // nil in an untraced run
}

type workloadDef struct {
	name  string
	why   string
	build func(cfg buildConfig) (*world, error)
}

// roundResult is what one measured round yields.
type roundResult struct {
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	Attempted  uint64  `json:"attempted"`
	Failed     uint64  `json:"failed"`
	OpsPerS    float64 `json:"ops_per_s"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	CPUUsPerOp float64 `json:"cpu_us_per_op"`
	AllocsPer  float64 `json:"allocs_per_op"`
	SimUsPerOp float64 `json:"sim_us_per_op"`
}

// perRound names the end-to-end metrics that every round yields a value
// of; a run reports the median of its untraced rounds.
var perRound = map[string]func(roundResult) float64{
	"ops_per_s":     func(r roundResult) float64 { return r.OpsPerS },
	"p50_us":        func(r roundResult) float64 { return r.P50Us },
	"p99_us":        func(r roundResult) float64 { return r.P99Us },
	"cpu_us_per_op": func(r roundResult) float64 { return r.CPUUsPerOp },
	"allocs_per_op": func(r roundResult) float64 { return r.AllocsPer },
	"sim_us_per_op": func(r roundResult) float64 { return r.SimUsPerOp },
}

// runRound drives every client for d and measures the round from
// outside: wall time, process CPU time, heap allocations and the virtual
// clock, each as a difference across the round.
func runRound(w *world, clients []*client, d time.Duration, traced bool) roundResult {
	for _, c := range clients {
		c.attempted, c.failed = 0, 0
		c.lat = hist{}
	}
	if w.tr != nil {
		w.tr.on.Store(traced)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuTime()
	sim := simTime(w)
	start := time.Now()
	deadline := start.Add(d)

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			t0 := time.Now()
			for t0.Before(deadline) {
				c.seq++
				c.op = uint64(c.id)<<40 | c.seq
				c.calls = 0
				c.keep = c.tr.keeps(c.op)
				var opStart int64
				if c.keep {
					opStart = c.tr.now()
				}
				ok := w.op(c)
				t1 := time.Now()
				if c.keep {
					c.spans = append(c.spans, span{op: c.op, id: c.op << spanIndexBits, name: spanOp, start: opStart, end: c.tr.now()})
				}
				c.lat.record(int64(t1.Sub(t0)))
				c.attempted++
				if !ok {
					c.failed++
				}
				t0 = t1
			}
		}(c)
	}
	wg.Wait()

	elapsed := time.Since(start)
	simDelta := simTime(w) - sim
	cpuDelta := cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	if w.tr != nil {
		w.tr.on.Store(false)
	}

	r := roundResult{Traced: traced, Seconds: elapsed.Seconds()}
	var all hist
	for _, c := range clients {
		r.Attempted += c.attempted
		r.Failed += c.failed
		all.merge(&c.lat)
	}
	if r.Attempted == 0 {
		return r
	}
	n := float64(r.Attempted)
	r.OpsPerS = float64(r.Attempted-r.Failed) / elapsed.Seconds()
	r.P50Us = all.quantile(0.50) / 1e3
	r.P99Us = all.quantile(0.99) / 1e3
	r.CPUUsPerOp = float64(cpuDelta.Microseconds()) / n
	r.AllocsPer = float64(ms.Mallocs-mallocs) / n
	r.SimUsPerOp = float64(simDelta.Nanoseconds()) / 1e3 / n
	return r
}

// simTime is the virtual time charged so far, over the distinct clocks of
// the workload's kernels (the kernels of one complex share one).
func simTime(w *world) time.Duration {
	seen := map[*mach.Clock]bool{}
	var t time.Duration
	for _, k := range w.kernels {
		if c := k.Clock(); !seen[c] {
			seen[c] = true
			t += c.Now()
		}
	}
	return t
}

// liveHeapMB forces a collection and returns what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func newClients(w *world, seed int64) []*client {
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = &client{
			id:     i,
			rng:    rand.New(rand.NewSource(seed*1000003 + int64(i) + 1)),
			tr:     w.tr,
			single: w.clients == 1,
		}
	}
	return clients
}

// clientCount is how many client goroutines a workload that wants n may
// start: load is generated by at most one goroutine per processor.
func clientCount(want int) int {
	if n := runtime.NumCPU(); n < want {
		return n
	}
	return want
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the spread of a set of runs is defined for this benchmark.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func pick(rs []roundResult, traced bool, f func(roundResult) float64) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Traced == traced {
			out = append(out, f(r))
		}
	}
	return out
}
