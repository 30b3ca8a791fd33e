package bench

import (
	"fmt"
	"io"
	"time"

	"fitingtree/internal/baseline"
	"fitingtree/internal/btree"
	"fitingtree/internal/core"
	"fitingtree/internal/costmodel"
	"fitingtree/internal/num"
	"fitingtree/internal/segment"
	"fitingtree/internal/workload"
)

// Config scales the experiment runners.
type Config struct {
	N          int           // base dataset size
	Seed       int64         // RNG seed for workloads and probes
	Probes     int           // number of lookup probes per measurement
	MinMeasure time.Duration // minimum measuring window per data point
	Quick      bool          // shrink sweeps (used by tests)
}

// DefaultConfig is the full-size configuration used by cmd/fitbench.
func DefaultConfig() Config {
	return Config{N: 1_000_000, Seed: 1, Probes: 100_000, MinMeasure: 100 * time.Millisecond}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N <= 0 {
		c.N = d.N
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Probes <= 0 {
		c.Probes = d.Probes
	}
	if c.MinMeasure <= 0 {
		c.MinMeasure = d.MinMeasure
	}
	return c
}

// positions returns the identity payload used as values in benchmarks.
func positions(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i)
	}
	return v
}

// Table1 reproduces Table 1: ShrinkingCone vs the optimal segmentation on
// samples of each dataset at several error thresholds. Sample sizes shrink
// as the error grows because the exact DP's running time grows with the
// segment reach (the paper hit the same wall via its O(n^2) memory).
func Table1(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	sampleFor := map[int]int{10: 100_000, 100: 50_000, 1000: 20_000}
	errs := []int{10, 100, 1000}
	if cfg.Quick {
		sampleFor = map[int]int{10: 20_000, 100: 10_000, 1000: 5_000}
	}
	t := NewTable("Table 1: ShrinkingCone vs optimal segmentation",
		"Dataset", "error", "sample", "ShrinkingCone", "Optimal", "Ratio")

	u64 := func(name string, gen func(int, int64) []uint64, errsUsed []int) {
		for _, e := range errsUsed {
			n := sampleFor[e]
			keys := gen(n, cfg.Seed)
			addTable1Row(t, name, e, keys)
		}
	}
	f64 := func(name string, gen func(int, int64) []float64, errsUsed []int) {
		for _, e := range errsUsed {
			n := sampleFor[e]
			keys := gen(n, cfg.Seed)
			addTable1Row(t, name, e, keys)
		}
	}
	// The paper reports taxi lat/lon at 10/100/1000 and the rest at 10/100.
	f64("Taxi drop lat", workload.TaxiDropLat, errs)
	f64("Taxi drop lon", workload.TaxiDropLon, errs)
	u64("Taxi pick time", workload.TaxiPickupTime, errs[:2])
	f64("OSM lon", workload.MapsLongitude, errs[:2])
	u64("Weblogs", workload.Weblogs, errs[:2])
	u64("IoT", workload.IoT, errs[:2])
	t.Print(w)
}

func addTable1Row[K num.Key](t *Table, name string, e int, keys []K) {
	greedy := len(segment.ShrinkingCone(keys, e))
	opt := segment.OptimalCount(keys, e)
	t.Add(name, e, len(keys), greedy, opt, float64(greedy)/float64(max(1, opt)))
}

// Fig1 emits the key->position mapping of the IoT dataset (Figure 1).
func Fig1(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	keys := workload.IoT(min(cfg.N, 200_000), cfg.Seed)
	ks, pos := workload.KeyPositionSeries(keys, 60)
	t := NewTable("Figure 1: IoT timestamp -> position mapping", "Timestamp(ms)", "Position")
	for i := range ks {
		t.Add(uint64(ks[i]), pos[i])
	}
	t.Print(w)
}

// fig6Errors is the error/page-size sweep of Figure 6.
func fig6Errors(quick bool) []int {
	if quick {
		return []int{100, 10_000}
	}
	return []int{10, 100, 1_000, 10_000, 100_000}
}

// Fig6 reproduces Figure 6: lookup latency versus index size for
// FITing-Tree, fixed-size paging, a full (dense) index, and binary search,
// on the Weblogs, IoT, and Maps datasets.
func Fig6(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	runFig6(w, "Weblogs (clustered)", workload.Weblogs(cfg.N, cfg.Seed), cfg)
	runFig6(w, "IoT (clustered)", workload.IoT(cfg.N, cfg.Seed), cfg)
	runFig6(w, "Maps (non-clustered key pages)", workload.MapsLongitude(cfg.N, cfg.Seed), cfg)
}

func runFig6[K num.Key](w io.Writer, name string, keys []K, cfg Config) {
	vals := positions(len(keys))
	probes := Probes(keys, cfg.Probes, cfg.Seed+7)
	t := NewTable("Figure 6: lookup latency vs index size — "+name,
		"Approach", "error/page", "IndexSize", "ns/lookup")

	for _, e := range fig6Errors(cfg.Quick) {
		ft, err := core.BulkLoad(keys, vals, core.Options{Error: e, BufferSize: 0})
		if err != nil {
			panic(err)
		}
		ns := LookupNs(ft.Lookup, probes, cfg.MinMeasure)
		t.Add("FITing-Tree", e, HumanBytes(ft.Stats().IndexSize), ns)
	}
	for _, ps := range fig6Errors(cfg.Quick) {
		fx, err := baseline.NewFixed(keys, vals, ps, btree.DefaultOrder)
		if err != nil {
			panic(err)
		}
		ns := LookupNs(fx.Lookup, probes, cfg.MinMeasure)
		t.Add("Fixed", ps, HumanBytes(fx.SizeBytes()), ns)
	}
	fu, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		panic(err)
	}
	t.Add("Full", "-", HumanBytes(fu.SizeBytes()), LookupNs(fu.Lookup, probes, cfg.MinMeasure))
	bs, err := baseline.NewBinarySearch(keys, vals)
	if err != nil {
		panic(err)
	}
	t.Add("Binary", "-", HumanBytes(0), LookupNs(bs.Lookup, probes, cfg.MinMeasure))
	t.Print(w)
}

// fig7Errors is the error sweep of Figure 7.
func fig7Errors(quick bool) []int {
	if quick {
		return []int{100}
	}
	return []int{10, 100, 1000}
}

// Fig7 reproduces Figure 7: insert throughput versus error threshold for
// FITing-Tree (buffer E/2), fixed paging (page E, buffer E/2), and the
// full index.
func Fig7(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	runFig7(w, "Weblogs", workload.Weblogs(cfg.N, cfg.Seed), cfg)
	runFig7(w, "IoT", workload.IoT(cfg.N, cfg.Seed), cfg)
	runFig7(w, "Maps", workload.MapsLongitude(cfg.N, cfg.Seed), cfg)
}

func runFig7[K num.Key](w io.Writer, name string, keys []K, cfg Config) {
	bulk, inserts := SplitForInserts(keys, 0.2, cfg.Seed+13)
	bulkVals := positions(len(bulk))
	t := NewTable("Figure 7: insert throughput vs error — "+name,
		"Approach", "error/page", "Minserts/s")

	for _, e := range fig7Errors(cfg.Quick) {
		ft, err := core.BulkLoad(bulk, bulkVals, core.Options{Error: e, BufferSize: e / 2})
		if err != nil {
			panic(err)
		}
		th := InsertThroughput(func(k K) { ft.Insert(k, 0) }, inserts)
		t.Add("FITing-Tree", e, th/1e6)
	}
	for _, e := range fig7Errors(cfg.Quick) {
		fx, err := baseline.NewFixed(bulk, bulkVals, e, btree.DefaultOrder)
		if err != nil {
			panic(err)
		}
		th := InsertThroughput(func(k K) { fx.Insert(k, 0) }, inserts)
		t.Add("Fixed", e, th/1e6)
	}
	fu, err := baseline.NewFull(bulk, bulkVals, btree.DefaultOrder)
	if err != nil {
		panic(err)
	}
	th := InsertThroughput(func(k K) { fu.Insert(k, 0) }, inserts)
	t.Add("Full", "-", th/1e6)
	t.Print(w)
}

// Fig8 reproduces Figure 8: the non-linearity ratio of each dataset across
// error scales; the bumps mark the datasets' periodicities.
func Fig8(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	weblogs := workload.Weblogs(cfg.N, cfg.Seed)
	iot := workload.IoT(cfg.N, cfg.Seed)
	maps := workload.MapsLongitude(cfg.N, cfg.Seed)
	t := NewTable("Figure 8: non-linearity ratio vs error scale",
		"error", "Weblogs", "IoT", "Maps")
	for e := 10; e < cfg.N; e *= 10 {
		t.Add(e,
			workload.NonLinearityRatio(weblogs, e),
			workload.NonLinearityRatio(iot, e),
			workload.NonLinearityRatio(maps, e))
	}
	t.Print(w)
}

// Fig9 reproduces Figure 9: index sizes on the worst-case step dataset.
// Below the step size FITing-Tree degenerates to fixed-size paging; at and
// above it a single segment suffices.
func Fig9(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	const step = 100
	keys := workload.Step(cfg.N, step, 100)
	vals := positions(len(keys))
	t := NewTable(fmt.Sprintf("Figure 9: worst-case step data (step=%d), index size vs error", step),
		"error/page", "FITing-Tree", "Fixed", "Full")
	fu, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		panic(err)
	}
	errs := []int{10, 50, 100, 1_000, 10_000}
	if cfg.Quick {
		errs = []int{10, 100, 1_000}
	}
	for _, e := range errs {
		ft, err := core.BulkLoad(keys, vals, core.Options{Error: e, BufferSize: 0})
		if err != nil {
			panic(err)
		}
		fx, err := baseline.NewFixed(keys, vals, e, btree.DefaultOrder)
		if err != nil {
			panic(err)
		}
		t.Add(e, HumanBytes(ft.Stats().IndexSize), HumanBytes(fx.SizeBytes()), HumanBytes(fu.SizeBytes()))
	}
	t.Print(w)
}

// Fig10 reproduces Figure 10: cost model accuracy. Predicted lookup
// latency should upper-bound the measured latency, and predicted index
// size should upper-bound (but track) the actual size.
func Fig10(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(keys))
	probes := Probes(keys, cfg.Probes, cfg.Seed+17)

	c := 50.0
	if !cfg.Quick {
		c = costmodel.MeasureCacheMissNs(64<<20, 2_000_000)
	}
	sampleErrs := []int{10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000}
	m, err := costmodel.Learn(keys, sampleErrs, c)
	if err != nil {
		panic(err)
	}
	t := NewTable(fmt.Sprintf("Figure 10: cost model accuracy (c=%.1fns)", c),
		"error", "pred ns", "actual ns", "pred size", "actual size")
	errs := []int{10, 100, 1000, 10000, 100000}
	if cfg.Quick {
		errs = []int{100, 10000}
	}
	for _, e := range errs {
		ft, err := core.BulkLoad(keys, vals, core.Options{Error: e, BufferSize: e / 2})
		if err != nil {
			panic(err)
		}
		actualNs := LookupNs(ft.Lookup, probes, cfg.MinMeasure)
		t.Add(e, m.Latency(e), actualNs, HumanBytes(m.Size(e)), HumanBytes(ft.Stats().IndexSize))
	}
	t.Print(w)
}

// Fig11 reproduces Figure 11: lookup latency as the dataset scales with
// its trends preserved; error threshold and page size fixed at 100.
func Fig11(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	base := cfg.N / 4
	t := NewTable("Figure 11: data size scalability (Weblogs, error=page=100)",
		"scale", "rows", "FITing ns", "Fixed ns", "Full ns", "Binary ns")
	scales := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		scales = []int{1, 4}
	}
	for _, sf := range scales {
		n := base * sf
		keys := workload.Weblogs(n, cfg.Seed)
		vals := positions(n)
		probes := Probes(keys, cfg.Probes, cfg.Seed+19)
		ft, err := core.BulkLoad(keys, vals, core.Options{Error: 100, BufferSize: 0})
		if err != nil {
			panic(err)
		}
		fx, err := baseline.NewFixed(keys, vals, 100, btree.DefaultOrder)
		if err != nil {
			panic(err)
		}
		fu, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
		if err != nil {
			panic(err)
		}
		bs, err := baseline.NewBinarySearch(keys, vals)
		if err != nil {
			panic(err)
		}
		t.Add(fmt.Sprintf("x%d", sf), n,
			LookupNs(ft.Lookup, probes, cfg.MinMeasure),
			LookupNs(fx.Lookup, probes, cfg.MinMeasure),
			LookupNs(fu.Lookup, probes, cfg.MinMeasure),
			LookupNs(bs.Lookup, probes, cfg.MinMeasure))
	}
	t.Print(w)
}

// Fig12 reproduces Figure 12: insert throughput versus buffer size at a
// large error threshold (20,000 in the paper).
func Fig12(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	bulk, inserts := SplitForInserts(keys, 0.2, cfg.Seed+23)
	bulkVals := positions(len(bulk))
	const e = 20_000
	t := NewTable(fmt.Sprintf("Figure 12: insert throughput vs buffer size (Weblogs, error=%d)", e),
		"buffer", "Minserts/s")
	bufs := []int{10, 100, 1_000, 10_000}
	if cfg.Quick {
		bufs = []int{10, 1_000}
	}
	for _, bu := range bufs {
		ft, err := core.BulkLoad(bulk, bulkVals, core.Options{Error: e, BufferSize: bu})
		if err != nil {
			panic(err)
		}
		th := InsertThroughput(func(k uint64) { ft.Insert(k, 0) }, inserts)
		t.Add(bu, th/1e6)
	}
	t.Print(w)
}

// Fig13 reproduces Figure 13: the fraction of lookup time spent in the
// inner tree versus inside the page, for FITing-Tree and fixed paging,
// across error/page sizes.
func Fig13(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(keys))
	probes := Probes(keys, min(cfg.Probes, 50_000), cfg.Seed+29)
	t := NewTable("Figure 13: lookup time breakdown (tree% / page%)",
		"error/page", "FITing tree%", "FITing page%", "Fixed tree%", "Fixed page%")
	errs := []int{10, 100, 1_000, 10_000, 100_000}
	if cfg.Quick {
		errs = []int{100, 10_000}
	}
	for _, e := range errs {
		ft, err := core.BulkLoad(keys, vals, core.Options{Error: e, BufferSize: 0})
		if err != nil {
			panic(err)
		}
		fx, err := baseline.NewFixed(keys, vals, e, btree.DefaultOrder)
		if err != nil {
			panic(err)
		}
		var ftTree, ftPage, fxTree, fxPage int64
		for _, k := range probes {
			_, _, tn, pn := ft.LookupBreakdown(k)
			ftTree += tn
			ftPage += pn
			_, _, tn, pn = fx.LookupBreakdown(k)
			fxTree += tn
			fxPage += pn
		}
		pct := func(a, b int64) float64 {
			if a+b == 0 {
				return 0
			}
			return 100 * float64(a) / float64(a+b)
		}
		t.Add(e, pct(ftTree, ftPage), pct(ftPage, ftTree), pct(fxTree, fxPage), pct(fxPage, fxTree))
	}
	t.Print(w)
}

// Experiment is one entry of the registry: everything that names,
// validates, lists or smokes an experiment iterates Experiments.
type Experiment struct {
	Name string
	// Run prints the experiment's tables to w and returns its measured
	// points, or nil when it has no machine-readable report.
	Run func(w io.Writer, cfg Config) any
	// JSON reports whether Run returns points (what cmd/fitbench's -json
	// writes).
	JSON bool
}

// Experiments is the one ordered list of experiments: the paper's Section
// 7 in paper order, then the two system experiments the canonical
// benchmark (benchmark/README.md) has no column for yet.
var Experiments = []Experiment{
	tables("table1", Table1),
	tables("fig1", Fig1),
	tables("fig6", Fig6),
	tables("fig7", Fig7),
	tables("fig8", Fig8),
	tables("fig9", Fig9),
	tables("fig10", Fig10),
	tables("fig11", Fig11),
	tables("fig12", Fig12),
	tables("fig13", Fig13),
	points("parallel", ExtParallel),
	points("strings", ExtStrings),
}

func tables(name string, run func(io.Writer, Config)) Experiment {
	return Experiment{Name: name, Run: func(w io.Writer, cfg Config) any { run(w, cfg); return nil }}
}

func points[P any](name string, run func(io.Writer, Config) []P) Experiment {
	return Experiment{Name: name, JSON: true, Run: func(w io.Writer, cfg Config) any { return run(w, cfg) }}
}

// Find returns the registered experiment called name.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registered experiments in order, keeping only those with
// a JSON report when jsonOnly is set.
func Names(jsonOnly bool) []string {
	var out []string
	for _, e := range Experiments {
		if e.JSON || !jsonOnly {
			out = append(out, e.Name)
		}
	}
	return out
}
