// Command machbench regenerates every experiment table of the
// reproduction, E2 through E12, each printed with the paper's claim it
// is checked against.
//
// Usage:
//
//	machbench            # run all experiments
//	machbench E3 E5      # run selected experiments
//	machbench -list      # list experiment IDs
//	machbench mcore ...  # multicore IPC throughput sweep (see mcore.go)
//	machbench stats ...  # metrics snapshot + diff + traced RPC (see stats.go)
//	machbench top ...    # live per-host msgs/s, p99, proxies (see stats.go)
//
// The tables report simulated quantities (a virtual clock charged by the
// machine package's cost models); only the shapes are meaningful. The
// output is not fully reproducible: rows that depend on goroutine
// scheduling, such as E7's page writes under memory pressure, vary from
// run to run of one binary. The mcore subcommand measures real
// wall-clock throughput.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

var all = []struct {
	id  string
	fn  func() experiments.Table
	doc string
}{
	{"E2", experiments.E2MessageCopyVsCOW, "large message transfer: eager copy vs COW"},
	{"E3", experiments.E3UnixCacheVsMach, "buffer-cache UNIX vs Mach mapped files"},
	{"E4", experiments.E4ArchLatency, "UMA/NUMA/NORMA latency taxonomy"},
	{"E5", experiments.E5SharedMemoryLocality, "network shared memory vs locality"},
	{"E6", experiments.E6Migration, "copy-on-reference task migration"},
	{"E7", experiments.E7CamelotWAL, "Camelot recoverable VM / write-ahead log"},
	{"E8", experiments.E8FaultPath, "fault path costs and memory-failure policies"},
	{"E9", experiments.E9Ablations, "ablations: COW fork, copy-on-reference OOL, pageout target"},
	{"E10", experiments.E10NetmsgCrossHost, "cross-host RPC: direct vs netmsg proxy relay"},
	{"E11", experiments.E11DurableIO, "durable storage: frame pool over real files, group-committed WAL"},
	{"E12", experiments.E12ScaleOut, "scale-out registry: 16-64 hosts under open-loop load (E12_SCALE=small|smoke shrinks it)"},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "mcore":
			runMcore(os.Args[2:])
			return
		case "stats":
			runStats(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		}
	}
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()
	if *list {
		for _, e := range all {
			fmt.Printf("%s  %s\n", e.id, e.doc)
		}
		return
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		t := e.fn()
		t.Render(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "machbench: no matching experiments (try -list)")
		os.Exit(1)
	}
}
