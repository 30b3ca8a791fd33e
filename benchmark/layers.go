package main

// layers.go is the traced run: it times calls into each layer's public
// functions on generated inputs, replays the mixed_rw and durable_ingest
// streams through the five stacks of the ladder (inline folds and
// harness-driven checkpoints, so that counts repeat), and records spans on
// the way. It produces the per-layer metrics and nothing end to end.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"fitingtree"
	"fitingtree/internal/baseline"
	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/segment"
)

// Op counts of the traced run at -seconds 20 -scale 1.
const (
	layerPasses     = 3
	layerLookupOps  = 1_000_000
	layerTimedOps   = 400_000
	layerScanOps    = 40_000
	layerAllocOps   = 200_000
	overlayPending  = 512 // writes left in the active delta for optimistic.overlay_ns
	mergeBatch      = 1024
	mergeBatches    = 64
	layerInsertOps  = 50_000
	layerIngestOps  = 100_000
	parallelOps     = 30_000 // per writer
	ladderMixedOps  = 80_000
	ladderDurOps    = 60_000
	ladderCuts      = 3  // harness checkpoints inside a durable replay
	baselineFanout  = 16 // the order the index's own inner B+ tree defaults to
	breakdownSample = 16
)

type tracedRun struct {
	cfg  config
	rp   *report
	tr   *tracer
	acct runner // sums the failure accounts of every replay
	d    *dataset
	dirs storeDirs
}

// fresh returns a copy of the dataset in its initial state: every replay
// starts from the same keys and its own oracle.
func (t *tracedRun) fresh() *dataset {
	c := *t.d
	c.live = append([]bool(nil), t.d.live...)
	return &c
}

// stream draws a stream that is valid from the dataset's initial state.
func (t *tracedRun) stream(draw func(g *gen) []op) []op {
	return draw(newGen(t.fresh(), t.cfg.seed))
}

// open builds a stack of kind over a fresh oracle.
func (t *tracedRun) open(kind stackKind, w ioWrap, p durablePolicy, inline bool) (*runner, string, error) {
	var dir string
	if kind == kindDurableDir {
		var err error
		if dir, err = t.dirs.next(); err != nil {
			return nil, "", err
		}
	}
	d := t.fresh()
	s, err := newStack(kind, d.bulkKeys, d.bulkVals, dir, w, p)
	if err != nil {
		return nil, "", err
	}
	if inline {
		s.SetAsyncFlush(false)
	}
	return &runner{s: s, d: d}, dir, nil
}

// done checks a replay's end state, closes its stack and adds its failure
// account to the run's.
func (t *tracedRun) done(r *runner) {
	if r.s != nil {
		r.closeChecked()
	}
	t.acct.attempted += r.attempted
	t.acct.failed += r.failed
	if t.acct.firstFailure == "" {
		t.acct.firstFailure = r.firstFailure
	}
	quiesce()
}

// call wraps a harness call in a span.
func (t *tracedRun) call(name string, fn func()) float64 {
	t.tr.begin(-1)
	start := time.Now()
	fn()
	secs := time.Since(start).Seconds()
	t.tr.end(name)
	return secs
}

// meanNs runs ops layerPasses times after a warm-up and returns the median
// pass's nanoseconds per op.
func meanNs(r *runner, ops []op) float64 {
	r.run(ops[:len(ops)/4])
	ns := make([]float64, layerPasses)
	for i := range ns {
		ns[i] = r.run(ops) * 1e9 / float64(len(ops))
	}
	return median(ns)
}

func runTraced(cfg config) (*report, *runner, error) {
	known := false
	for _, w := range workloadDefs {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	root, err := os.MkdirTemp(cfg.tmp, cfg.workload+"-traced-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	t := &tracedRun{
		cfg:  cfg,
		rp:   newReport(cfg.progress),
		tr:   newTracer(),
		d:    newDataset(cfg.keys(bulkKeys), cfg.keys(holdWrites), cfg.seed),
		dirs: storeDirs{root: root},
	}
	// The per-layer numbers are raw; machine.speed, read at the quiet points
	// between sections, says what machine they were taken on.
	sp := newSpeedometer(cfg.size)
	speeds := []float64{sp.calm()}
	for _, section := range []func() error{
		t.segmentAndBulk, t.reads, t.coreWrites, t.optimisticWrites,
		t.parallelWrites, t.ladders, t.overhead,
	} {
		if err := section(); err != nil {
			return nil, nil, err
		}
		speeds = append(speeds, sp.calm())
	}
	t.rp.set("machine.speed", median(speeds), len(speeds))
	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(cfg.tmp, "spans-"+cfg.workload+".jsonl")
	}
	spans := t.tr.finish()
	err = checkNesting(spans)
	t.acct.check(err == nil, "%v", err)
	if err := writeSpanFile(out, spans); err != nil {
		return nil, nil, fmt.Errorf("span file: %w", err)
	}
	if cfg.progress != nil {
		for _, name := range t.tr.totalNames() {
			tot := t.tr.totals[name]
			fmt.Fprintf(cfg.progress, "span %-22s count=%-9d total=%.3f s\n", name, tot.Count, float64(tot.Ns)/1e9)
		}
	}
	return t.rp, &t.acct, nil
}

// segmentAndBulk times the two steps of building the index.
func (t *tracedRun) segmentAndBulk() error {
	keys, vals := t.d.bulkKeys, t.d.bulkVals
	var cone, bulk []float64
	segments := 0
	for i := 0; i < layerPasses; i++ {
		start := time.Now()
		segments = len(segment.ShrinkingCone(keys, fitingtree.DefaultError))
		cone = append(cone, float64(time.Since(start).Nanoseconds())/float64(len(keys)))
		start = time.Now()
		if _, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{}); err != nil {
			return err
		}
		bulk = append(bulk, float64(time.Since(start).Nanoseconds())/float64(len(keys)))
		quiesce()
	}
	t.rp.set("segment.cone_ns_per_key", median(cone), len(keys)*layerPasses)
	t.rp.set("segment.segments", float64(segments), 1)
	t.rp.set("core.bulkload_ns_per_key", median(bulk), len(keys)*layerPasses)
	return nil
}

// reads measures the read path of the bare tree, what the optimistic facade
// adds to it with an empty and with a part-filled delta, and the paper's two
// yardsticks on the same keys and probes.
func (t *tracedRun) reads() error {
	cfg, rp := t.cfg, t.rp
	g := newGen(t.fresh(), cfg.seed)
	probes := g.lookups(cfg.ops(layerLookupOps))
	hot := g.hotLookups(cfg.ops(layerLookupOps))
	scans := g.scans(cfg.ops(layerScanOps))

	r, _, err := t.open(kindTree, ioWrap{}, durablePolicy{}, false)
	if err != nil {
		return err
	}
	tree := r.s.(treeStack).t
	coreNs := meanNs(r, probes)
	rp.set("core.lookup_ns", coreNs, len(probes)*layerPasses)
	var tm timings
	r.runSampled(probes[:min(len(probes), cfg.ops(layerTimedOps))], 1, &tm)
	rp.set("core.lookup_ns_p99", tm.lookup.sorted().quantile(0.99), len(tm.lookup))
	var routerNs, pageNs, n int64
	for i := 0; i < len(probes); i += breakdownSample {
		_, _, a, b := tree.LookupBreakdown(probes[i].key)
		routerNs, pageNs, n = routerNs+a, pageNs+b, n+1
	}
	rp.set("core.router_ns", float64(routerNs)/float64(n), int(n))
	rp.set("core.page_ns", float64(pageNs)/float64(n), int(n))
	rp.set("core.hot_lookup_ns", meanNs(r, hot), len(hot)*layerPasses)

	var rowNs []float64
	for i := 0; i < layerPasses; i++ {
		rows, secs := r.scanPass(scans)
		rowNs = append(rowNs, secs*1e9/float64(rows))
	}
	rp.set("core.scan_ns_per_row", median(rowNs), len(scans)*layerPasses)

	batched, keys := keysOf(probes)
	var keyNs []float64
	for i := 0; i < layerPasses; i++ {
		keyNs = append(keyNs, r.batchPass(batched, keys)*1e9/float64(len(batched)))
	}
	rp.set("core.batch_ns_per_key", median(keyNs), len(batched)*layerPasses)

	allocOps := probes[:min(len(probes), cfg.ops(layerAllocOps))]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.run(allocOps)
	runtime.ReadMemStats(&after)
	rp.set("core.allocs_per_lookup", float64(after.Mallocs-before.Mallocs)/float64(len(allocOps)), len(allocOps))
	t.done(r)

	// The facade over the same tree contents: empty delta, then with
	// overlayPending writes sitting in the active delta (below the flush
	// threshold, so they stay there).
	if r, _, err = t.open(kindOptimistic, ioWrap{}, durablePolicy{}, false); err != nil {
		return err
	}
	rp.set("optimistic.lookup_overhead_ns", meanNs(r, probes)-coreNs, len(probes)*layerPasses)
	r.run(newGen(r.d, cfg.seed).writes(overlayPending, 10))
	rp.set("optimistic.overlay_ns", meanNs(r, probes)-coreNs, len(probes)*layerPasses)
	t.done(r)

	// The yardsticks. They are also the machine-speed control.
	bkeys, bvals := t.d.bulkKeys, t.d.bulkVals
	check := func(lookup func(uint64) (uint64, bool)) float64 {
		base := &runner{s: lookupOnly{lookup: lookup}, d: t.d}
		ns := meanNs(base, probes)
		base.s = nil // nothing to check or close
		t.done(base)
		return ns
	}
	bin, err := baseline.NewBinarySearch(bkeys, bvals)
	if err != nil {
		return err
	}
	rp.set("baseline.binsearch_lookup_ns", check(bin.Lookup), len(probes)*layerPasses)
	full, err := baseline.NewFull(bkeys, bvals, baselineFanout)
	if err != nil {
		return err
	}
	rp.set("baseline.btree_lookup_ns", check(full.Lookup), len(probes)*layerPasses)
	rp.set("baseline.btree_index_bytes", float64(full.SizeBytes()), 1)
	return nil
}

// lookupOnly lets the runner drive a yardstick, which has a Lookup and
// nothing else the benchmark uses: the embedded stack is nil.
type lookupOnly struct {
	stack
	lookup func(uint64) (uint64, bool)
}

func (l lookupOnly) Lookup(k uint64) (uint64, bool) { return l.lookup(k) }

// coreWrites times the two write paths of the bare tree: the copy-on-write
// merge every facade folds with, and the paper's in-place insert that no
// facade uses.
func (t *tracedRun) coreWrites() error {
	cfg, rp := t.cfg, t.rp
	batches := max(cfg.ops(mergeBatch*mergeBatches)/mergeBatch, 1)
	stream := t.stream(func(g *gen) []op { return g.writes(batches*mergeBatch, 10) })
	tree, err := fitingtree.BulkLoad(t.d.bulkKeys, t.d.bulkVals, fitingtree.Options{})
	if err != nil {
		return err
	}
	want := tree.Len()
	var ns int64
	applied := 0
	for i := 0; i+mergeBatch <= len(stream); i += mergeBatch {
		ops, delta := mergeOps(stream[i : i+mergeBatch])
		start := time.Now()
		tree = tree.MergeCOW(ops)
		ns += time.Since(start).Nanoseconds()
		applied += mergeBatch
		want += delta
	}
	t.acct.check(tree.Len() == want, "MergeCOW left %d keys, want %d", tree.Len(), want)
	err = tree.CheckInvariants()
	t.acct.check(err == nil, "MergeCOW broke the tree: %v", err)
	rp.set("core.mergecow_ns_per_op", float64(ns)/float64(applied), applied)
	rp.set("core.mergecow_pages_per_kop", float64(tree.Counters().PagesMade)*1000/float64(applied), applied)
	tree = nil
	quiesce()

	r, _, err := t.open(kindTree, ioWrap{}, durablePolicy{}, false)
	if err != nil {
		return err
	}
	var tm timings
	r.runSampled(stream[:min(len(stream), cfg.ops(layerInsertOps))], 1, &tm)
	rp.set("core.insert_ns", tm.write.mean(), len(tm.write))
	t.done(r)
	return nil
}

// mergeOps turns a batch of writes into MergeCOW's input: one entry per key,
// ascending. A key is held out once, so inside a batch it is inserted,
// deleted (an insert of an earlier batch) or both, which cancels. delta is
// the change in key count.
func mergeOps(batch []op) (ops []core.MergeOp[uint64, uint64], delta int) {
	net := make(map[uint64]int, len(batch))
	for _, o := range batch {
		if o.kind == opInsert {
			net[o.key]++
		} else {
			net[o.key]--
		}
	}
	keys := make([]uint64, 0, len(net))
	for k, n := range net {
		if n != 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if net[k] > 0 {
			ops = append(ops, core.MergeOp[uint64, uint64]{Key: k, Adds: []uint64{valueOf(k)}})
		} else {
			ops = append(ops, core.MergeOp[uint64, uint64]{Key: k, Dels: 1})
		}
		delta += net[k]
	}
	return ops, delta
}

// optimisticWrites runs the ingest stream through the optimistic facade
// twice: with background folds, every write timed, for the latency tail and
// the allocation bill; and with inline folds, for the fold count and the
// rate that separates publishing a delta from folding it.
func (t *tracedRun) optimisticWrites() error {
	cfg, rp := t.cfg, t.rp
	stream := t.stream(func(g *gen) []op { return g.writes(cfg.ops(layerIngestOps), 10) })

	r, _, err := t.open(kindOptimistic, ioWrap{}, durablePolicy{}, false)
	if err != nil {
		return err
	}
	o := r.s.(optStack).o
	start := o.Stats()
	tm := timings{write: make(samples, 0, len(stream))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	secs := r.runSampled(stream, 1, &tm)
	runtime.ReadMemStats(&after)
	n := float64(len(stream))
	w := tm.write.sorted()
	rp.set("optimistic.write_ns_p50", w.quantile(0.5), len(w))
	rp.set("optimistic.write_ns_p99", w.quantile(0.99), len(w))
	rp.set("optimistic.write_ns_p999", w.quantile(0.999), len(w))
	rp.set("optimistic.write_ns_max", w.quantile(1), len(w))
	rp.set("optimistic.allocs_per_write", float64(after.Mallocs-before.Mallocs)/n, len(w))
	rp.set("optimistic.bytes_per_write", float64(after.TotalAlloc-before.TotalAlloc)/n, len(w))
	rp.set("optimistic.gc_cycles", float64(after.NumGC-before.NumGC), len(w))
	rp.set("optimistic.bp_folds", float64(o.BackpressureFolds()), len(w))
	rp.set("optimistic.async_write_ops_per_s", n/secs, len(w))
	t.call("optimistic.syncflush", o.SyncFlush)
	end := o.Stats()
	rp.set("optimistic.pages_after_ingest", float64(end.Pages), 1)
	rp.set("optimistic.index_growth_ratio", float64(end.IndexSize)/float64(start.IndexSize), 1)
	t.done(r)

	if r, _, err = t.open(kindOptimistic, ioWrap{}, durablePolicy{}, true); err != nil {
		return err
	}
	folds := 0
	r.s.(optStack).o.SetFlushHook(func() { folds++ })
	secs = r.run(stream)
	rp.set("optimistic.inline_write_ops_per_s", n/secs, len(stream))
	rp.set("optimistic.folds", float64(folds), len(stream))
	r.s.(optStack).o.SetFlushHook(nil)
	t.done(r)
	return nil
}

// parallelWrites is the one concurrent number: two writers on the two
// halves of the key space, which the four shards split between them.
func (t *tracedRun) parallelWrites() error {
	cfg := t.cfg
	r, _, err := t.open(kindSharded, ioWrap{}, durablePolicy{}, false)
	if err != nil {
		return err
	}
	s := r.s.(shardedStack).s
	sizes := s.ShardSizes()
	largest, total := 0, 0
	for _, n := range sizes {
		largest, total = max(largest, n), total+n
	}
	t.rp.set("sharded.shard_size_skew", float64(largest)*float64(len(sizes))/float64(total), len(sizes))

	per := cfg.ops(parallelOps)
	mid := r.d.universe[len(r.d.universe)/2]
	var halves [2][]op
	for _, idx := range r.d.hold {
		o := op{kind: opInsert, idx: idx, key: r.d.universe[idx]}
		h := 0
		if o.key >= mid {
			h = 1
		}
		if len(halves[h]) < per {
			halves[h] = append(halves[h], o)
		}
		if len(halves[0]) == per && len(halves[1]) == per {
			break
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, half := range halves {
		wg.Add(1)
		go func(ops []op) {
			defer wg.Done()
			for _, o := range ops {
				s.Insert(o.key, valueOf(o.key))
			}
		}(half)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	written := len(halves[0]) + len(halves[1])
	t.rp.set("sharded.parallel_write_ops_per_s", float64(written)/secs, written)
	// The writers bypassed the runner; bring the oracle up to date and
	// read everything back through it.
	for _, half := range halves {
		for _, o := range half {
			r.d.live[o.idx] = true
			r.d.count++
		}
	}
	for _, half := range halves {
		for _, o := range half {
			r.do(op{kind: opLookup, idx: o.idx, key: o.key}, nil)
		}
	}
	t.done(r)
	return nil
}

// rung is what one replay of a stream through one stack found.
type rung struct {
	nsPerOp  float64
	lookupNs float64 // mean
	writeNs  float64 // mean
	cuts     int     // harness checkpoints made
	written  int     // chunks they serialized
	reused   int     // chunks they carried over by reference
}

// drive runs stream through r's stack, every op timed and traced, with cuts
// harness checkpoints on the way and a Sync at the end when the stack is
// durable. The stack stays open.
func (t *tracedRun) drive(r *runner, stream []op, cuts int) rung {
	ds, _ := r.s.(*durableStack)
	if ds == nil {
		cuts = 0
	}
	rg := rung{cuts: cuts}
	r.tr = t.tr
	if opt, ok := r.s.(optStack); ok {
		// Stays in place until the stack is closed: the closing SyncFlush
		// publishes too.
		opt.o.SetFlushHook(func() { t.tr.instant("optimistic.publish") })
	}
	var tm timings
	var secs float64
	n := 0
	for i, part := range split(stream, cuts+1) {
		secs += r.runSampled(part, 1, &tm)
		n += len(part)
		if i == cuts {
			break
		}
		var written, reused int
		var err error
		t.call("durable.checkpoint", func() { written, reused, err = ds.Checkpoint() })
		r.check(err == nil, "checkpoint: %v", err)
		rg.written, rg.reused = rg.written+written, rg.reused+reused
	}
	if ds != nil {
		var err error
		secs += t.call("durable.sync", func() { err = ds.Sync() })
		r.check(err == nil, "sync: %v", err)
	}
	r.tr = nil
	rg.nsPerOp = secs * 1e9 / float64(n)
	rg.lookupNs, rg.writeNs = tm.lookup.mean(), tm.write.mean()
	return rg
}

func countWrites(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind != opLookup && o.kind != opScan {
			n++
		}
	}
	return n
}

// ladders replays the two write-heavy streams through the five stacks,
// folds inline. A layer's self time is its rung minus the rung below.
func (t *tracedRun) ladders() error {
	cfg, rp := t.cfg, t.rp
	streams := []struct {
		name string
		ops  []op
	}{
		{"mixed_rw", t.stream(func(g *gen) []op { return g.mixed(cfg.ops(ladderMixedOps), mixedRW) })},
		{"durable_ingest", t.stream(func(g *gen) []op { return g.mixed(cfg.ops(ladderDurOps), durableIngest) })},
	}
	var rungs [2][kindDurableDir + 1]rung
	for si, st := range streams {
		for kind := kindTree; kind <= kindDurableDir; kind++ {
			if si == 1 && kind == kindDurableDir {
				rg, err := t.durableDirRung(st.ops)
				if err != nil {
					return err
				}
				rungs[si][kind] = rg
				continue
			}
			r, _, err := t.open(kind, ioWrap{}, harnessPolicy, true)
			if err != nil {
				return err
			}
			rungs[si][kind] = t.drive(r, st.ops, ladderCuts)
			t.call("optimistic.syncflush", r.s.SyncFlush)
			t.done(r)
		}
		for kind, rg := range rungs[si] {
			rp.set(fmt.Sprintf("ladder.%s.%s_ns_per_op", st.name, stackKind(kind)), rg.nsPerOp, len(st.ops))
		}
	}
	mixed, dur := rungs[0], rungs[1]
	rp.set("sharded.lookup_overhead_ns", mixed[kindSharded].lookupNs-mixed[kindOptimistic].lookupNs, len(streams[0].ops))
	rp.set("sharded.write_overhead_ns", mixed[kindSharded].writeNs-mixed[kindOptimistic].writeNs, len(streams[0].ops))
	rp.set("durable.write_overhead_ns", dur[kindDurableMem].writeNs-dur[kindSharded].writeNs, len(streams[1].ops))
	rp.set("durable.io_overhead_ns", dur[kindDurableDir].writeNs-dur[kindDurableMem].writeNs, len(streams[1].ops))
	return t.autoCheckpoint(streams[1].ops)
}

// durableDirRung is the top rung of the durable_ingest ladder: the stream
// on a real directory with the storage boundary counted and timed, then a
// crash and two reopens that split recovery into loading the last cut and
// replaying the log past it.
func (t *tracedRun) durableDirRung(stream []op) (rung, error) {
	rp := t.rp
	var st ioStats
	crash := &crashIO{}
	r, dir, err := t.open(kindDurableDir, timedIO(&st, t.tr).under(crash.wrap()), harnessPolicy, true)
	if err != nil {
		return rung{}, err
	}
	ds := r.s.(*durableStack)
	base := st.counts() // the first cut and the log files belong to set-up
	rg := t.drive(r, stream, ladderCuts)
	io := st.counts().minus(base)

	writes := countWrites(stream)
	rp.set("wal.write_calls", float64(io.walWrites), writes)
	rp.set("wal.bytes_per_op", float64(io.walBytes)/float64(writes), writes)
	rp.set("wal.write_ns_mean", float64(io.walWriteNs)/float64(max(io.walWrites, 1)), int(io.walWrites))
	rp.set("wal.syncs", float64(io.walSyncs), writes)
	rp.set("wal.sync_ns_mean", float64(io.walSyncNs)/float64(max(io.walSyncs, 1)), int(io.walSyncs))
	rp.set("wal.group_size", float64(writes)/float64(max(io.walSyncs, 1)), writes)
	rp.set("pager.page_writes", float64(io.pageWrites), rg.cuts)
	rp.set("pager.page_reads", float64(io.pageReads), rg.cuts)
	rp.set("pager.syncs", float64(io.pageSyncs), rg.cuts)
	rp.set("pager.write_ns_total", float64(io.pageWriteNs), int(io.pageWrites))
	rp.set("pager.bytes_written_per_user_byte", float64(io.pageWrites*pager.PageSize)/float64(16*writes), writes)
	rp.set("durable.chunks_written_per_ckpt", float64(rg.written)/float64(rg.cuts), rg.cuts)
	rp.set("durable.chunks_reused_per_ckpt", float64(rg.reused)/float64(rg.cuts), rg.cuts)

	// Everything is synced, so the crash loses nothing; it leaves the last
	// segment's records in the logs, past the last cut.
	parts := split(stream, ladderCuts+1)
	tail := countWrites(parts[ladderCuts])
	r.s = nil
	if err := crash.crash(); err != nil {
		return rung{}, err
	}
	if err := ds.closeDevice(); err != nil {
		return rung{}, err
	}
	quiesce()
	reopen := func() (float64, error) {
		var rst ioStats
		var re *durableStack
		var err error
		secs := t.call("durable.open", func() { re, err = reopenDir(dir, timedIO(&rst, t.tr), harnessPolicy) })
		if err != nil {
			return 0, err
		}
		r.s = re
		r.check(re.Len() == r.d.count, "recovered %d keys, %d were acknowledged", re.Len(), r.d.count)
		return secs, nil
	}
	withTail, err := reopen()
	if err != nil {
		return rung{}, err
	}
	// Close commits a final cut, so the next open has no log to replay.
	err = r.s.Close()
	r.check(err == nil, "close after recovery: %v", err)
	r.s = nil
	quiesce()
	loadOnly, err := reopen()
	if err != nil {
		return rung{}, err
	}
	rp.set("durable.recover_load_s", loadOnly, 1)
	rp.set("durable.replay_ns_per_record", (withTail-loadOnly)*1e9/float64(tail), tail)
	n := r.s.Len()
	t.done(r)
	bytes, err := dirBytes(dir)
	if err != nil {
		return rung{}, err
	}
	rp.set("pager.store_bytes_per_user_byte", float64(bytes)/float64(16*n), n)
	return rg, nil
}

// autoCheckpoint runs the durable_ingest stream on a real directory the way
// the library ships: background folds, a checkpoint after every fold. It
// shows what background checkpoints cost the foreground; their number
// depends on timing, so nothing here repeats exactly.
func (t *tracedRun) autoCheckpoint(stream []op) error {
	var st ioStats
	policy := durablePolicy{syncEvery: harnessPolicy.syncEvery, autoCheckpoint: true}
	r, _, err := t.open(kindDurableDir, timedIO(&st, nil), policy, false)
	if err != nil {
		return err
	}
	base := st.counts()
	secs := r.run(stream)
	io := st.counts().minus(base)
	t.rp.set("durable.auto_ckpt_write_ops_per_s", float64(countWrites(stream))/secs, len(stream))
	t.rp.set("durable.auto_ckpt_page_writes", float64(io.pageWrites), len(stream))
	t.done(r)
	return nil
}

// overhead replays the named workload's main stream on its own stack twice,
// plain and then traced the way the ladder traces, for the share of the
// rate that tracing costs.
func (t *tracedRun) overhead() error {
	cfg := t.cfg
	var kind stackKind
	var draw func(g *gen) []op
	switch cfg.workload {
	case "read_only":
		kind, draw = kindOptimistic, func(g *gen) []op { return g.lookups(cfg.ops(layerLookupOps)) }
	case "ingest":
		kind, draw = kindOptimistic, func(g *gen) []op { return g.writes(cfg.ops(layerIngestOps), 10) }
	case "mixed_rw":
		kind, draw = kindSharded, func(g *gen) []op { return g.mixed(cfg.ops(ladderMixedOps), mixedRW) }
	case "durable_ingest":
		kind, draw = kindDurableDir, func(g *gen) []op { return g.mixed(cfg.ops(ladderDurOps), durableIngest) }
	}
	stream := t.stream(draw)
	var rates [2]float64
	for traced := range rates {
		var st ioStats
		var w ioWrap
		if traced == 1 {
			w = timedIO(&st, t.tr)
		}
		r, _, err := t.open(kind, w, harnessPolicy, true)
		if err != nil {
			return err
		}
		var secs float64
		if traced == 1 {
			r.tr = t.tr
			secs = r.runSampled(stream, 1, &timings{})
			r.tr = nil
		} else {
			secs = r.run(stream)
		}
		rates[traced] = float64(len(stream)) / secs
		t.done(r)
	}
	t.rp.set("trace.overhead_share", 1-rates[1]/rates[0], len(stream))
	return nil
}
