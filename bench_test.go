// Benchmarks mirroring the paper's evaluation, one per table/figure, at
// testing.B-friendly sizes. The full parameter sweeps with paper-style
// output live in cmd/fitbench.
package fitingtree_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fitingtree"
	"fitingtree/internal/baseline"
	"fitingtree/internal/bench"
	"fitingtree/internal/btree"
	"fitingtree/internal/costmodel"
	"fitingtree/internal/segment"
	"fitingtree/internal/workload"
)

const benchN = 200_000

func benchKeys() []uint64 { return workload.Weblogs(benchN, 1) }

func benchVals(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i)
	}
	return v
}

// BenchmarkTable1Segmentation measures the two segmentation algorithms of
// Table 1 and reports the segment counts they produce.
func BenchmarkTable1Segmentation(b *testing.B) {
	keys := workload.Weblogs(20_000, 1)
	b.Run("shrinkingcone", func(b *testing.B) {
		segs := 0
		for i := 0; i < b.N; i++ {
			segs = len(segment.ShrinkingCone(keys, 100))
		}
		b.ReportMetric(float64(segs), "segments")
	})
	b.Run("optimal", func(b *testing.B) {
		segs := 0
		for i := 0; i < b.N; i++ {
			segs = segment.OptimalCount(keys, 100)
		}
		b.ReportMetric(float64(segs), "segments")
	})
}

// BenchmarkFig6Lookup measures point-lookup latency for every approach of
// Figure 6 on the Weblogs dataset and reports each index's size.
func BenchmarkFig6Lookup(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	probes := bench.Probes(keys, 1<<16, 2)
	mask := len(probes) - 1

	for _, e := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("fiting/e=%d", e), func(b *testing.B) {
			t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: e})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(t.Stats().IndexSize), "index-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Lookup(probes[i&mask])
			}
		})
	}
	for _, ps := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("fixed/page=%d", ps), func(b *testing.B) {
			f, err := baseline.NewFixed(keys, vals, ps, btree.DefaultOrder)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(f.SizeBytes()), "index-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Lookup(probes[i&mask])
			}
		})
	}
	b.Run("full", func(b *testing.B) {
		f, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.SizeBytes()), "index-bytes")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Lookup(probes[i&mask])
		}
	})
	b.Run("binary", func(b *testing.B) {
		f, err := baseline.NewBinarySearch(keys, vals)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Lookup(probes[i&mask])
		}
	})
}

// BenchmarkFig7Insert measures insert throughput for the three approaches
// of Figure 7 at error/page 100.
func BenchmarkFig7Insert(b *testing.B) {
	keys := benchKeys()
	bulk, inserts := bench.SplitForInserts(keys, 0.2, 3)
	vals := benchVals(len(bulk))
	const e = 100

	b.Run("fiting", func(b *testing.B) {
		t, err := fitingtree.BulkLoad(bulk, vals, fitingtree.Options{Error: e, BufferSize: e / 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Insert(inserts[i%len(inserts)], 0)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		f, err := baseline.NewFixed(bulk, vals, e, btree.DefaultOrder)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Insert(inserts[i%len(inserts)], 0)
		}
	})
	b.Run("full", func(b *testing.B) {
		f, err := baseline.NewFull(bulk, vals, btree.DefaultOrder)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Insert(inserts[i%len(inserts)], 0)
		}
	})
}

// BenchmarkFig8NonLinearity measures the non-linearity ratio computation
// (one ShrinkingCone pass) and reports the ratio at the IoT bump scale.
func BenchmarkFig8NonLinearity(b *testing.B) {
	keys := workload.IoT(100_000, 1)
	scale := 100_000 / workload.IoTSpanDays
	r := 0.0
	for i := 0; i < b.N; i++ {
		r = workload.NonLinearityRatio(keys, scale)
	}
	b.ReportMetric(r, "ratio")
}

// BenchmarkFig9WorstCase measures bulk loading the worst-case step dataset
// and reports the page counts on either side of the Figure 9 crossover.
func BenchmarkFig9WorstCase(b *testing.B) {
	keys := workload.Step(100_000, 100, 100)
	vals := benchVals(len(keys))
	for _, e := range []int{10, 100} {
		b.Run(fmt.Sprintf("e=%d", e), func(b *testing.B) {
			pages := 0
			for i := 0; i < b.N; i++ {
				t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: e, BufferSize: 0})
				if err != nil {
					b.Fatal(err)
				}
				pages = t.Stats().Pages
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// BenchmarkFig10CostModel measures tuned-index lookups and reports the
// model's prediction next to them (Figure 10a's two curves).
func BenchmarkFig10CostModel(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	const e = 1000
	m, err := costmodel.Learn(keys, []int{10, 100, 1000, 10000}, 50)
	if err != nil {
		b.Fatal(err)
	}
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: e, BufferSize: e / 2})
	if err != nil {
		b.Fatal(err)
	}
	probes := bench.Probes(keys, 1<<16, 4)
	mask := len(probes) - 1
	b.ReportMetric(m.Latency(e), "predicted-ns")
	b.ReportMetric(float64(m.Size(e)), "predicted-bytes")
	b.ReportMetric(float64(t.Stats().IndexSize), "actual-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(probes[i&mask])
	}
}

// BenchmarkFig11Scalability measures lookups as the dataset scales with
// trends preserved (error = page = 100).
func BenchmarkFig11Scalability(b *testing.B) {
	for _, sf := range []int{1, 4} {
		n := 50_000 * sf
		keys := workload.Weblogs(n, 1)
		vals := benchVals(n)
		probes := bench.Probes(keys, 1<<15, 5)
		mask := len(probes) - 1
		b.Run(fmt.Sprintf("x%d", sf), func(b *testing.B) {
			t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Lookup(probes[i&mask])
			}
		})
	}
}

// BenchmarkFig12BufferSize measures insert throughput across buffer sizes
// at a large error threshold.
func BenchmarkFig12BufferSize(b *testing.B) {
	keys := benchKeys()
	bulk, inserts := bench.SplitForInserts(keys, 0.2, 6)
	vals := benchVals(len(bulk))
	const e = 20_000
	for _, bu := range []int{10, 1_000, 10_000} {
		b.Run(fmt.Sprintf("buf=%d", bu), func(b *testing.B) {
			t, err := fitingtree.BulkLoad(bulk, vals, fitingtree.Options{Error: e, BufferSize: bu})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Insert(inserts[i%len(inserts)], 0)
			}
		})
	}
}

// BenchmarkFig13Breakdown measures instrumented lookups and reports the
// tree-phase share of lookup time.
func BenchmarkFig13Breakdown(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	probes := bench.Probes(keys, 1<<15, 7)
	mask := len(probes) - 1
	var treeNs, pageNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, tn, pn := t.LookupBreakdown(probes[i&mask])
		treeNs += tn
		pageNs += pn
	}
	if treeNs+pageNs > 0 {
		b.ReportMetric(100*float64(treeNs)/float64(treeNs+pageNs), "tree-%")
	}
}

// BenchmarkBulkLoad measures end-to-end index construction on Weblogs keys:
// the segmentation and the page copies, both spread over GOMAXPROCS, then
// the chunk cut. The 4 M-key row is the size the canonical benchmark loads.
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{benchN, 4_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys := workload.Weblogs(n, 1)
			vals := benchVals(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShrinkingCone measures the segmentation alone on
// BenchmarkBulkLoad's 4 M keys at its ε (100, no insert buffer).
func BenchmarkShrinkingCone(b *testing.B) {
	keys := workload.Weblogs(4_000_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segment.ShrinkingCone(keys, 100)
	}
}

// BenchmarkNewSharded measures splitting a bulk-loaded 1 M-key tree into
// four shards: fences picked from the page starts, the page chain cut at
// them. Splitting only reads the tree, so one tree serves every iteration.
func BenchmarkNewSharded(b *testing.B) {
	keys := workload.Weblogs(1_000_000, 1)
	t, err := fitingtree.BulkLoad(keys, benchVals(len(keys)), fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitingtree.NewSharded(t, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeScan measures 1000-element range scans.
func BenchmarkRangeScan(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := keys[(i*4099)%(len(keys)-2000)]
		n := 0
		t.AscendRange(lo, keys[len(keys)-1], func(k, v uint64) bool {
			n++
			return n < 1000
		})
	}
}

// BenchmarkWindowSearch times a point lookup, whose in-page search covers
// the 2E+1 window (Section 4.1.2), at a small and a large error threshold.
func BenchmarkWindowSearch(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	probes := bench.Probes(keys, 1<<15, 8)
	mask := len(probes) - 1
	for _, e := range []int{10, 1000} {
		b.Run(fmt.Sprintf("e=%d", e), func(b *testing.B) {
			t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: e})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Lookup(probes[i&mask])
			}
		})
	}
}

// BenchmarkParallelLookup measures aggregate point-lookup throughput at
// 1/2/4/8 reader goroutines for the two concurrency facades, with the bare
// tree as the no-synchronization baseline. ns/op is aggregate wall time
// for b.N lookups spread across the goroutines, so a facade that scales
// shows shrinking ns/op as goroutines grow (given GOMAXPROCS > 1); the
// RWMutex facade instead serializes on the lock word.
func BenchmarkParallelLookup(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	probes := bench.Probes(keys, 1<<16, 11)
	mask := len(probes) - 1
	build := func(b *testing.B) *fitingtree.Tree[uint64, uint64] {
		t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	run := func(b *testing.B, lookup func(uint64) (uint64, bool), goroutines int) {
		var wg sync.WaitGroup
		per := b.N/goroutines + 1
		b.ResetTimer()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				i := off * 7919
				for n := 0; n < per; n++ {
					lookup(probes[i&mask])
					i++
				}
			}(g)
		}
		wg.Wait()
	}

	b.Run("tree/goroutines=1", func(b *testing.B) {
		t := build(b)
		run(b, t.Lookup, 1)
	})
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rwmutex/goroutines=%d", g), func(b *testing.B) {
			c := bench.NewConcurrent(build(b))
			run(b, c.Lookup, g)
		})
	}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("optimistic/goroutines=%d", g), func(b *testing.B) {
			o := fitingtree.NewOptimistic(build(b))
			run(b, o.Lookup, g)
		})
	}
}

// BenchmarkParallelLookupCPU is the testing-native variant of
// BenchmarkParallelLookup: b.RunParallel spawns GOMAXPROCS goroutines, so
// `go test -bench ParallelLookupCPU -cpu 1,2,4,8` sweeps the parallelism
// levels with the scheduler actually granting that many cores.
func BenchmarkParallelLookupCPU(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	probes := bench.Probes(keys, 1<<16, 13)
	mask := len(probes) - 1
	build := func(b *testing.B) *fitingtree.Tree[uint64, uint64] {
		t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	var worker atomic.Int64
	run := func(b *testing.B, lookup func(uint64) (uint64, bool)) {
		b.RunParallel(func(pb *testing.PB) {
			i := int(worker.Add(1)) * 7919
			for pb.Next() {
				lookup(probes[i&mask])
				i++
			}
		})
	}
	b.Run("rwmutex", func(b *testing.B) {
		c := bench.NewConcurrent(build(b))
		run(b, c.Lookup)
	})
	b.Run("optimistic", func(b *testing.B) {
		o := fitingtree.NewOptimistic(build(b))
		run(b, o.Lookup)
	})
}

// BenchmarkLookupBatch compares batched lookups through the staged batch
// kernel — in random probe order, presorted (a key is located on the
// previous key's page when the next page starts above it) and random behind
// four shards — against the same probes issued one by one. The dataset fits
// the cache; BenchmarkLookupBatchCold is the one where lookups miss.
func BenchmarkLookupBatch(b *testing.B) {
	keys := benchKeys()
	vals := benchVals(len(keys))
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 1024
	probes := bench.Probes(keys, batchSize, 12)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.Lookup(probes[i%batchSize])
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i += batchSize {
			t.LookupBatch(probes)
		}
	})
	sorted := append([]uint64(nil), probes...)
	sortU64(sorted)
	b.Run("batch-presorted", func(b *testing.B) {
		for i := 0; i < b.N; i += batchSize {
			t.LookupBatch(sorted)
		}
	})
	// Last: NewSharded takes the tree over.
	s, err := fitingtree.NewSharded(t, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.Run("sharded-batch", func(b *testing.B) {
		for i := 0; i < b.N; i += batchSize {
			s.LookupBatch(probes)
		}
	})
}

// BenchmarkLookupBatchCold is BenchmarkLookupBatch where lookups miss the
// cache: 4 M keys (64 MB of rows) and a million probes taken 256 a call, so
// no call finds the lines of the one before. Presorted batches come sparse
// (the random probes of a call, sorted) and dense (256 probes inside 4096
// consecutive keys: a range-restricted join).
func BenchmarkLookupBatchCold(b *testing.B) {
	const n, batchSize, pool = 4_000_000, 256, 1 << 20
	keys := workload.Weblogs(n, 1)
	t, err := fitingtree.BulkLoad(keys, benchVals(len(keys)), fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	probes := bench.Probes(keys, pool, 12)
	sparse := append([]uint64(nil), probes...)
	dense := make([]uint64, pool)
	rng := rand.New(rand.NewSource(13))
	for at := 0; at < pool; at += batchSize {
		sortU64(sparse[at : at+batchSize])
		from := rng.Intn(len(keys) - 4096)
		for i := at; i < at+batchSize; i++ {
			dense[i] = keys[from+rng.Intn(4096)]
		}
		sortU64(dense[at : at+batchSize])
	}
	batches := func(probes []uint64, batch func([]uint64) ([]uint64, []bool)) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i += batchSize {
				at := i % pool
				batch(probes[at : at+batchSize])
			}
		}
	}
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.Lookup(probes[i%pool])
		}
	})
	b.Run("batch", batches(probes, t.LookupBatch))
	b.Run("batch-presorted-sparse", batches(sparse, t.LookupBatch))
	b.Run("batch-presorted-dense", batches(dense, t.LookupBatch))
	// Last: NewSharded takes the tree over.
	s, err := fitingtree.NewSharded(t, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.Run("sharded-batch", batches(probes, s.LookupBatch))
	b.Run("sharded-batch-presorted-sparse", batches(sparse, s.LookupBatch))
}

// BenchmarkLayeredLookup is the in-process cost of reading through the
// merge ladder: an Optimistic over 1 M distinct Weblogs keys with the
// default four frozen layers at the flush threshold and a half-full active
// delta ("layered"), then the same content folded ("folded"). Probes are
// random and interleaved, half hits and half misses (held-out keys never
// inserted); Lookup and LookupBatch report ns per key.
func BenchmarkLayeredLookup(b *testing.B) {
	const batchSize, pool = 256, 1 << 16
	raw := workload.Weblogs(1_000_000, 1)
	var base, held []uint64
	for i, k := range raw {
		switch {
		case i > 0 && k == raw[i-1]:
		case i%64 == 63:
			held = append(held, k)
		default:
			base = append(base, k)
		}
	}
	t, err := fitingtree.BulkLoad(base, base, fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	o := fitingtree.NewOptimistic(t)
	o.SetAsyncFlush(true)
	fitingtree.HoldFlushWorker(o) // pushed layers stay on the ladder
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	next := 0
	insert := func() {
		o.Insert(held[next], held[next])
		next++
	}
	for o.Stats().FrozenLayers < fitingtree.MaxFrozenLayers {
		insert()
	}
	for half := o.Stats().LayerPending[0] / 2; half > 0; half-- {
		insert()
	}
	present := append(base[:len(base):len(base)], held[:next]...)
	probes := make([]uint64, pool)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = present[rng.Intn(len(present))]
		} else {
			probes[i] = held[next+rng.Intn(len(held)-next)]
		}
	}
	run := func(name string) {
		b.Run(name+"/lookup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.Lookup(probes[i%pool])
			}
		})
		b.Run(name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i += batchSize {
				at := i % pool
				o.LookupBatch(probes[at : at+batchSize])
			}
		})
	}
	run("layered")
	o.SyncFlush()
	run("folded")
}

// BenchmarkOptimisticIngest is the in-process write path at the canonical
// tree size: an asynchronous Optimistic over the 4 M-key Weblogs draw
// (duplicates removed) with every third key held out, inserting the
// held-out keys in a fixed shuffled order. Past the 1024 floor the flush
// threshold follows the tree's page count, so this is the benchmark that
// shows a change to fold batches; BenchmarkShardWrite's 100 k-key tree
// sits at the floor. It reports ns and bytes allocated per insert (the
// background folds' included) and pages/write: Counters.PagesMade over the
// writes folded when the timer stops.
func BenchmarkOptimisticIngest(b *testing.B) {
	raw := workload.Weblogs(4_000_000, 1)
	var base, held []uint64
	for i, k := range raw {
		switch {
		case i > 0 && k == raw[i-1]:
		case (len(base)+len(held))%3 == 2:
			held = append(held, k)
		default:
			base = append(base, k)
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	if b.N > len(held) {
		b.Fatalf("%d inserts asked, %d keys held out", b.N, len(held))
	}
	t, err := fitingtree.BulkLoad(base, base, fitingtree.Options{Error: 100})
	if err != nil {
		b.Fatal(err)
	}
	o := fitingtree.NewOptimistic(t)
	defer o.Close()
	o.SetAsyncFlush(true)
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range held[:b.N] {
		o.Insert(k, k)
	}
	b.StopTimer()
	if st := o.Stats(); b.N > st.Buffered {
		b.ReportMetric(float64(st.Counters.PagesMade)/float64(b.N-st.Buffered), "pages/write")
	}
}
