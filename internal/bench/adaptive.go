package bench

import (
	"fmt"
	"io"

	"fitingtree"
	"fitingtree/internal/num"
	"fitingtree/internal/workload"
)

// AdaptivePoint is one measurement of the self-tuning experiment: one
// configuration (a fixed global error threshold, or the adaptive tuner
// seeded with the sweep's best fixed one) run through the same skewed
// warm/measure/delete schedule.
type AdaptivePoint struct {
	Config          string  `json:"config"`            // fixed | adaptive
	Epsilon         int     `json:"epsilon"`           // global (or seed) error threshold
	HotLookupNs     float64 `json:"hot_lookup_ns"`     // lookups inside the hot range
	UniformLookupNs float64 `json:"uniform_lookup_ns"` // lookups over the whole key space
	InsertsPerSec   float64 `json:"inserts_per_sec"`
	PagesPerKiloOp  float64 `json:"pages_per_kop"` // pages rebuilt per 1000 writes (write amplification)
	IndexSize       int64   `json:"index_size_bytes"`
	Regions         int     `json:"regions"`                 // tuner regions in the final plan (0 = untuned)
	PlanEpsilons    []int   `json:"plan_epsilons,omitempty"` // per-region ε targets of the final plan
	Underfull       int     `json:"underfull_after_deletes"`
}

// Hot-range geometry of the adaptive experiment: 10% of the elements,
// centered, receiving 90% of the lookups.
const (
	adaptiveHotAt   = 0.45
	adaptiveHotSpan = 0.10
	adaptiveHotFrac = 0.90

	// Insert skew: writes concentrate on the most recent 30% of the key
	// space (Weblogs keys are timestamps, so this is the natural
	// time-series shape — new events append near the tail while analysts
	// hammer a historical window).
	adaptiveInsAt   = 0.85
	adaptiveInsSpan = 0.30
	adaptiveInsFrac = 0.90
)

// ExtAdaptive is the self-tuning extension experiment: the Section 6 cost
// model driven as a live feedback loop. A doubly skewed time-series
// workload (90% of lookups against a 10% historical window, 90% of
// inserts against the most recent 30%) runs against fixed global error
// thresholds and against the adaptive tuner seeded with the sweep's best
// fixed one — the tuner has to *improve on* the operator's best hand
// pick, not on a strawman. It should hold the read-hot window's bound
// tight relative to the rest while the write-dominated and idle regions
// drift loose, shedding index size and merge write amplification no
// single global ε reaches without giving up the hot window's latency. A
// final delete-heavy phase guts a cold quarter of the key space and
// reports the surviving under-full chunks; fold-time absorption keeps
// the count bounded.
func ExtAdaptive(w io.Writer, cfg Config) []AdaptivePoint {
	cfg = cfg.withDefaults()
	base := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(base))

	warmLookups := num.MinInt(cfg.Probes, 100_000)
	warmInserts := num.MinInt(cfg.N/8, 64_000)
	measureInserts := num.MinInt(cfg.N/8, 50_000)
	if cfg.Quick {
		warmLookups = num.MinInt(cfg.Probes, 10_000)
	}

	hotProbes := workload.HotCold(base, cfg.Probes, adaptiveHotAt, adaptiveHotSpan, 1, cfg.Seed+53)
	uniProbes := Probes(base, cfg.Probes, cfg.Seed+59)

	t := NewTable(fmt.Sprintf("Extension: cost-model self-tuning (Weblogs, hot 10%% gets %d%% of lookups, recent 30%% gets %d%% of inserts)",
		int(adaptiveHotFrac*100), int(adaptiveInsFrac*100)),
		"config", "e", "plan e", "hot ns", "uniform ns", "Minserts/s", "pages/kop", "IndexSize", "regions", "underfull")
	var points []AdaptivePoint

	configs := []struct {
		name     string
		eps      int
		adaptive bool
	}{
		{"fixed", 64, false},
		{"fixed", 256, false},
		{"fixed", 1024, false},
		{"adaptive", 1024, true},
	}
	for i, c := range configs {
		seed := cfg.Seed + int64(i)*101
		tr, err := fitingtree.BulkLoad(base, vals, fitingtree.Options{Error: c.eps, BufferSize: 32})
		if err != nil {
			panic(err)
		}
		o := fitingtree.NewOptimistic(tr)
		o.SetAsyncFlush(false) // deterministic inline folds
		pt := AdaptivePoint{Config: c.name, Epsilon: c.eps}

		// Warm in two halves: the skewed traffic accumulates load counters,
		// the explicit mid-point retune publishes a plan, and the second
		// half's folds apply it to the regions they rebuild anyway. The
		// automatic loop (SetAutoTune) keeps retuning every few folds.
		if c.adaptive {
			o.SetAutoTune(true)
		}
		warm := func(half int) {
			look := workload.HotCold(base, warmLookups/2,
				adaptiveHotAt, adaptiveHotSpan, adaptiveHotFrac, seed+int64(half))
			ins := workload.HotCold(base, warmInserts/2,
				adaptiveInsAt, adaptiveInsSpan, adaptiveInsFrac, seed+10+int64(half))
			for j := 0; j < len(look) || j < len(ins); j++ {
				if j < len(look) {
					o.Lookup(look[j])
				}
				if j < len(ins) {
					o.Insert(ins[j], 0)
				}
			}
			o.SyncFlush()
		}
		warm(0)
		if c.adaptive {
			o.Retune()
		}
		warm(1)

		pt.HotLookupNs = LookupNs(o.Lookup, hotProbes, cfg.MinMeasure)
		pt.UniformLookupNs = LookupNs(o.Lookup, uniProbes, cfg.MinMeasure)

		ins := workload.HotCold(base, measureInserts,
			adaptiveInsAt, adaptiveInsSpan, adaptiveInsFrac, seed+23)
		before := o.Counters()
		pt.InsertsPerSec = InsertThroughput(func(k uint64) { o.Insert(k, 0) }, ins)
		o.SyncFlush()
		after := o.Counters()
		pt.PagesPerKiloOp = float64(after.PagesMade-before.PagesMade) * 1000 / float64(len(ins))

		st := o.Stats()
		pt.IndexSize = st.IndexSize
		pt.Regions = len(st.Regions)
		planCol := "-"
		if len(st.Regions) > 0 {
			minE, maxE := st.Regions[0].Epsilon, st.Regions[0].Epsilon
			for _, r := range st.Regions {
				pt.PlanEpsilons = append(pt.PlanEpsilons, r.Epsilon)
				minE, maxE = num.MinInt(minE, r.Epsilon), num.MaxInt(maxE, r.Epsilon)
			}
			planCol = fmt.Sprintf("%d-%d", minE, maxE)
		}

		// Delete-heavy phase: gut the first quarter of the key space and
		// report the under-full chunks that survive fold-time absorption.
		for _, k := range base[:len(base)/4] {
			o.Delete(k)
		}
		o.SyncFlush()
		pt.Underfull = o.Stats().UnderfullChunks

		points = append(points, pt)
		t.Add(c.name, c.eps, planCol, pt.HotLookupNs, pt.UniformLookupNs, pt.InsertsPerSec/1e6,
			pt.PagesPerKiloOp, HumanBytes(pt.IndexSize), pt.Regions, pt.Underfull)
	}
	t.Print(w)
	return points
}
