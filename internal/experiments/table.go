// Package experiments regenerates the paper's quantitative claims: one
// function per experiment (E2..E12), each returning a printable Table
// that carries the paper's claim beside the measured rows.
// cmd/machbench renders them; the root bench_test.go drives them under
// testing.B.
//
// Absolute numbers are simulated (the machine package's cost models), so
// only the SHAPES are meaningful: who wins, by what factor, where the
// crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's result: rows of formatted cells under
// headers.
type Table struct {
	// ID is the experiment identifier (E2..E8).
	ID string
	// Title says what the table shows.
	Title string
	// PaperClaim quotes the claim being reproduced.
	PaperClaim string
	// Headers and Rows are the tabular data.
	Headers []string
	Rows    [][]string
	// Notes carry caveats and observations.
	Notes []string
	// Metrics carry accounting lines read straight from the
	// observability registry (snapshot diffs over the measured window)
	// instead of subsystem-private counters.
	Metrics []string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(w, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, m := range t.Metrics {
		fmt.Fprintf(w, "  registry: %s\n", m)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ms formats a duration as milliseconds with 3 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// us formats a duration as microseconds with 1 decimal.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// ratio formats a/b.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// lcg is a deterministic pseudo-random source for workloads.
type lcg uint64

func newLCG(seed uint64) *lcg { v := lcg(seed*2654435761 + 1); return &v }

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 17)
}

// intn returns a value in [0, n).
func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// float returns a value in [0, 1).
func (l *lcg) float() float64 { return float64(l.next()%1_000_000) / 1_000_000 }
