package bench

import (
	"io"
	"math/rand"

	"fitingtree/internal/baseline"
	"fitingtree/internal/btree"
	"fitingtree/internal/core"
	"fitingtree/internal/workload"
)

// ExtRange is an extension experiment for Section 4.2's range queries:
// throughput of range scans of growing selectivity for FITing-Tree, the
// fixed-page baseline, and the dense index (all clustered, so scans are
// sequential after one point lookup).
func ExtRange(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(keys))
	ft, err := core.BulkLoad(keys, vals, core.Options{Error: 100, BufferSize: 0})
	if err != nil {
		panic(err)
	}
	fu, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		panic(err)
	}

	t := NewTable("Extension: range scan throughput (Weblogs, error=100)",
		"rows/scan", "FITing Mrows/s", "Full Mrows/s")
	rng := rand.New(rand.NewSource(cfg.Seed + 37))
	sizes := []int{10, 100, 1_000, 10_000}
	if cfg.Quick {
		sizes = []int{10, 1_000}
	}
	for _, span := range sizes {
		scans := num2(200_000/span, 20)
		starts := make([]int, scans)
		for i := range starts {
			starts[i] = rng.Intn(len(keys) - span - 1)
		}
		ftNs := LookupNs(func(s uint64) (int, bool) {
			n := 0
			ft.AscendRange(keys[s], keys[int(s)+span], func(uint64, uint64) bool { n++; return true })
			return n, true
		}, toU64(starts), cfg.MinMeasure)
		fuNs := LookupNs(func(s uint64) (int, bool) {
			n := 0
			fu.AscendRange(keys[s], keys[int(s)+span], func(uint64, uint64) bool { n++; return true })
			return n, true
		}, toU64(starts), cfg.MinMeasure)
		t.Add(span, float64(span)/ftNs*1e3, float64(span)/fuNs*1e3)
	}
	t.Print(w)
}

// ExtAblation compares the in-segment search strategies (Section 4.1.2's
// design choice) at small and large error thresholds.
func ExtAblation(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(keys))
	probes := Probes(keys, cfg.Probes, cfg.Seed+41)

	t := NewTable("Extension: ablations — search strategy",
		"variant", "error", "IndexSize", "ns/lookup")
	errs := []int{10, 1000}
	if cfg.Quick {
		errs = []int{100}
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"binary", core.Options{Search: core.SearchBinary}},
		{"linear", core.Options{Search: core.SearchLinear}},
		{"exponential", core.Options{Search: core.SearchExponential}},
	}
	for _, e := range errs {
		for _, v := range variants {
			o := v.opts
			o.Error = e
			o.BufferSize = 0
			tr, err := core.BulkLoad(keys, vals, o)
			if err != nil {
				panic(err)
			}
			t.Add(v.name, e, HumanBytes(tr.Stats().IndexSize), LookupNs(tr.Lookup, probes, cfg.MinMeasure))
		}
	}
	t.Print(w)
}

// num2 returns a if positive, else b.
func num2(a, b int) int {
	if a > 0 {
		return a
	}
	return b
}

// toU64 converts int indexes to uint64 for the generic measuring helper.
func toU64(xs []int) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

// sortedLower returns the first index with keys[i] >= k.
func sortedLower(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
