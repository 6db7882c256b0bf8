package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare A.json... -- B.json... is the repeatability check and the tool
// later issues use: A is the parent commit's result files, B the change's
// (or a second set from the same commit). For every end-to-end metric and
// workload it takes each side's median and applies the bound
// BENCHMARK.json fixes:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's own spread (first to third quartile over its
//	            median) exceeds the bound, so the runs cannot tell
//
// It exits 1 if any row is worse.

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// side collects, per workload and metric, the values of one side's files.
type side map[string]map[string][]float64

func readSide(paths []string) (side, error) {
	s := side{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, w := range rf.Workloads {
			if w.Traced {
				continue // end-to-end metrics are taken with tracing off
			}
			if s[w.Workload] == nil {
				s[w.Workload] = map[string][]float64{}
			}
			for name, v := range w.EndToEnd {
				s[w.Workload][name] = append(s[w.Workload][name], v.Value)
			}
			s[w.Workload]["failed_share"] = append(s[w.Workload]["failed_share"], w.FailedShare)
		}
	}
	return s, nil
}

func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	var a, b []string
	cur := &a
	for _, arg := range args {
		if arg == "--" {
			cur = &b
			continue
		}
		*cur = append(*cur, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.json... -- B.json...")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	sa, err := readSide(a)
	if err == nil {
		var sb side
		if sb, err = readSide(b); err == nil {
			return compareSides(sa, sb, bf, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSides(sa, sb side, bf benchmarkFile, stdout io.Writer) int {
	// failed_share has no entry in BENCHMARK.json (it is 0 on a healthy
	// run); its bound is 0: any rise is worse.
	metrics := append([]boundedMetric{{Name: "failed_share", Unit: "share", Better: "lower"}}, bf.EndToEnd...)
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "A spread", "B spread", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range metrics {
			va, vb := sa[wl.Name][m.Name], sb[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb - ma // how much worse B is, in the metric's unit
			if m.Better == "higher" {
				worse = ma - mb
			}
			change := 0.0
			if ma != 0 {
				change = worse / ma
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case ma == 0 && worse > 0, ma != 0 && change > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.4f %14.4f %+8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*spread(va), 100*spread(vb), 100*m.Bound, verdict)
		}
	}
	return code
}
