// machbench stats / machbench top: the observability surface, live.
//
// Both subcommands boot a small self-contained workload — a two-host
// NORMA complex with a local client and a remote client hammering one
// echo service through the netmsg relay (calls and batches) — and then
// read the process-global metrics registry the kernels record into.
//
//	machbench stats              # snapshot + diff-over-interval table
//	machbench stats -interval 2s
//	machbench stats -notrace     # skip the traced-RPC timeline
//	machbench top                # live per-host msgs/s, p99, proxies
//	machbench top -interval 500ms -n 0   # refresh forever
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/mach"
)

const statsEcho mach.MsgID = 9600

// statsWorkload is the traffic generator behind stats/top: two kernels,
// one echo service checked in on host 0, clients on both hosts.
type statsWorkload struct {
	kernels []*mach.Kernel
	client  *mach.RPCClient // remote client, reused for the traced call
	stop    chan struct{}
	wg      sync.WaitGroup
}

func startStatsWorkload() (*statsWorkload, error) {
	kernels, _, _ := mach.Complex(2, mach.NORMA, 256, 4096)
	w := &statsWorkload{kernels: kernels, stop: make(chan struct{})}

	server := kernels[0].NewTask()
	srv, err := mach.NewRPCServer(server.Space)
	if err != nil {
		return nil, err
	}
	srv.Handle(statsEcho, func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
		v := d.U64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		r := mach.NewRPCReply()
		r.U64(v)
		return r, nil
	})
	go srv.Loop.Run(2)
	if err := mach.NetMsgCheckIn(server, "echo", srv.Port); err != nil {
		return nil, err
	}

	// One caller per host: host 0 exercises the local fast path, host 1
	// the proxy relay. The remote caller folds a batch in every eighth
	// round so the batch-size histogram has something to show.
	for h, k := range kernels {
		task := k.NewTask()
		svc, err := mach.NetMsgLookUp(task, "echo")
		if err != nil {
			return nil, err
		}
		c := mach.NewRPCClient(task.Space, svc, 30*time.Second)
		if h == 1 {
			w.client = c
		}
		batching := h == 1
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			req := mach.NewEnc()
			for i := uint64(0); ; i++ {
				select {
				case <-w.stop:
					return
				default:
				}
				if batching && i%8 == 7 {
					b := c.NewBatch()
					for j := 0; j < 4; j++ {
						b.Add(statsEcho, mach.NewEnc().U64(i))
					}
					if b.Commit() != nil {
						return
					}
					continue
				}
				resp, err := c.Call(statsEcho, req.Reset().U64(i))
				if err != nil {
					return
				}
				resp.Release()
			}
		}()
	}
	return w, nil
}

// pause stops the traffic loops but leaves the complex up (the traced
// demo call wants a quiet wire).
func (w *statsWorkload) pause() {
	close(w.stop)
	w.wg.Wait()
}

func (w *statsWorkload) shutdown() {
	for i := len(w.kernels) - 1; i >= 0; i-- {
		w.kernels[i].Shutdown()
	}
}

func runStats(argv []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "diff window")
	notrace := fs.Bool("notrace", false, "skip the traced-RPC timeline")
	_ = fs.Parse(argv)

	w, err := startStatsWorkload()
	if err != nil {
		fmt.Fprintf(os.Stderr, "machbench stats: %v\n", err)
		os.Exit(1)
	}
	time.Sleep(100 * time.Millisecond) // warm-up: proxies built, pools primed

	before := mach.Metrics()
	time.Sleep(*interval)
	after := mach.Metrics()
	w.pause()

	fmt.Printf("activity over %v (two-host NORMA complex, echo service on host 0):\n\n",
		after.Interval(before).Round(time.Millisecond))
	fmt.Println(indent(after.Diff(before).Table()))
	fmt.Println("cumulative snapshot:")
	fmt.Println()
	fmt.Println(indent(after.Table()))

	if !*notrace {
		mach.ResetTrace()
		prev := mach.SetTraceSampling(1)
		resp, err := w.client.Call(statsEcho, mach.NewEnc().U64(42))
		mach.SetTraceSampling(prev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "machbench stats: traced call: %v\n", err)
			os.Exit(1)
		}
		resp.Release()
		ids := map[uint64]bool{}
		for _, ev := range mach.TraceDump() {
			ids[ev.Trace] = true
		}
		fmt.Printf("traced cross-host RPC (%d trace(s) recorded):\n\n", len(ids))
		for _, ev := range mach.TraceDump() {
			if ids[ev.Trace] {
				fmt.Println(indent(mach.FormatTrace(mach.Trace(ev.Trace))))
				break
			}
		}
	}
	w.shutdown()
}

func runTop(argv []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "refresh interval")
	ticks := fs.Int("n", 10, "refresh count (0 = forever)")
	_ = fs.Parse(argv)

	w, err := startStatsWorkload()
	if err != nil {
		fmt.Fprintf(os.Stderr, "machbench top: %v\n", err)
		os.Exit(1)
	}
	defer w.shutdown()
	defer w.pause()

	prev := mach.Metrics()
	for i := 0; *ticks == 0 || i < *ticks; i++ {
		time.Sleep(*interval)
		cur := mach.Metrics()
		diff := cur.Diff(prev)
		secs := cur.Interval(prev).Seconds()
		fmt.Printf("\x1b[2J\x1b[Hmachbench top — %s (tick %d, interval %v)\n\n",
			time.Now().Format("15:04:05"), i+1, interval.Round(time.Millisecond))
		fmt.Printf("%-8s %10s %10s %12s %10s %8s\n",
			"host", "msgs/s", "rpc/s", "p99-us", "batches/s", "proxies")
		for _, host := range topHosts(cur) {
			p := host + "."
			sends := float64(diff.Counters[p+"ipc.sends"]) / secs
			calls := float64(0)
			for name, v := range diff.Counters {
				if strings.HasPrefix(name, p+"rpc.") && strings.HasSuffix(name, ".calls") {
					calls += float64(v)
				}
			}
			lat := diff.Hists[p+"ipc.latency_ns"]
			p99 := float64(lat.P99()) / 1e3
			batches := float64(diff.Hists[p+"rpc.batch_size"].Count) / secs
			fmt.Printf("%-8s %10.0f %10.0f %12.1f %10.1f %8d\n",
				host, sends, calls/secs, p99, batches, cur.Gauges[p+"netmsg.proxies"])
		}
		prev = cur
	}
}

// topHosts lists the hostN prefixes present in a snapshot, in order.
func topHosts(s mach.MetricsSnapshot) []string {
	seen := map[string]bool{}
	for name := range s.Counters {
		if h, _, ok := strings.Cut(name, "."); ok && strings.HasPrefix(h, "host") {
			seen[h] = true
		}
	}
	hosts := make([]string, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ")
}
