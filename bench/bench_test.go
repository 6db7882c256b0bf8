package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload's untraced and traced run with 0.3 s
// rounds and checks the output against BENCHMARK.json: every workload
// ran, no operation failed, and each result line carries exactly the
// metrics the file names, with their units. It asserts no timing, so it
// cannot flake; it is here so that the benchmark cannot rot.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	checkTable(t, "end_to_end", bf.EndToEnd, endToEnd)
	checkTable(t, "per_layer", bf.PerLayer, perLayer)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\n%s", code, stderr.String())
	}
	type resultLine struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	var lines []resultLine
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, `{"correct"`) {
			var r resultLine
			if err := json.Unmarshal([]byte(l), &r); err != nil {
				t.Fatalf("result line %q: %v", l, err)
			}
			lines = append(lines, r)
		}
	}
	// Two lines per workload, in order: the untraced run's, the traced run's.
	if len(lines) != 2*len(bf.Workloads) {
		t.Fatalf("%d result lines, want %d\n%s", len(lines), 2*len(bf.Workloads), stdout.String())
	}
	for i, w := range bf.Workloads {
		if !strings.Contains(stdout.String(), "== "+w.Name+":") {
			t.Errorf("%s: not in the output", w.Name)
		}
		for j, want := range [][]boundedMetric{bf.EndToEnd, bf.PerLayer} {
			r := lines[2*i+j]
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s: %d metrics in the result line, want %d", w.Name, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s: got %+v (present %v), want unit %q", w.Name, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func checkTable(t *testing.T, list string, file []boundedMetric, code []metricDef) {
	t.Helper()
	if len(file) != len(code) {
		t.Fatalf("%s: BENCHMARK.json names %d metrics, the benchmark has %d", list, len(file), len(code))
	}
	for i, m := range file {
		if c := code[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("%s[%d]: BENCHMARK.json says %+v, the benchmark %+v", list, i, m, c)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.97 || got > want*1.03 {
			t.Errorf("quantile(%v) = %v, want %v within 3%%", q, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
