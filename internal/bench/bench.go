// Package bench is the measurement and reporting harness for reproducing
// the paper's evaluation (Section 7). Each experiment in the paper — Table
// 1 and Figures 1, 6, 7, 8, 9, 10, 11, 12, 13 — has a runner here that
// generates the workload, builds the competing indexes, measures, and
// prints the same rows/series the paper reports. Experiments lists them
// all; cmd/fitbench is the CLI over that list, and the repository-root
// benchmarks reuse the same helpers under testing.B.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"fitingtree/internal/num"
)

// Table accumulates rows and renders them aligned.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a titled table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Print renders the table to w.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// HumanBytes renders a byte count in the paper's MB-centric style.
func HumanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// LookupNs measures the average wall-clock nanoseconds per call of lookup
// over the probe keys, repeated until at least minDur has elapsed.
func LookupNs[K num.Key, V any](lookup func(K) (V, bool), probes []K, minDur time.Duration) float64 {
	if len(probes) == 0 {
		return 0
	}
	total := 0
	start := time.Now()
	for {
		for _, k := range probes {
			lookup(k)
		}
		total += len(probes)
		if time.Since(start) >= minDur {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(total)
}

// InsertThroughput measures inserts per second for inserting keys via fn.
func InsertThroughput[K num.Key](fn func(K), keys []K) float64 {
	start := time.Now()
	for _, k := range keys {
		fn(k)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed == 0 {
		return 0
	}
	return float64(len(keys)) / elapsed
}

// num2 returns a if positive, else b.
func num2(a, b int) int {
	if a > 0 {
		return a
	}
	return b
}

// Probes draws count keys uniformly from keys (with replacement), so
// lookup measurements mix hot and cold regions the way the paper's random
// point queries do.
func Probes[K num.Key](keys []K, count int, seed int64) []K {
	rng := rand.New(rand.NewSource(seed))
	out := make([]K, count)
	for i := range out {
		out[i] = keys[rng.Intn(len(keys))]
	}
	return out
}

// SplitForInserts deterministically splits generated keys into a bulk-load
// portion (sorted) and an insert portion (shuffled), preserving the overall
// distribution of both, for the insert-throughput experiments.
func SplitForInserts[K num.Key](keys []K, insertFrac float64, seed int64) (bulk []K, inserts []K) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range keys {
		if rng.Float64() < insertFrac {
			inserts = append(inserts, k)
		} else {
			bulk = append(bulk, k)
		}
	}
	rng.Shuffle(len(inserts), func(i, j int) { inserts[i], inserts[j] = inserts[j], inserts[i] })
	return bulk, inserts
}
