package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fitingtree/internal/workload"
)

// pair is one element of a reference content stream.
type pair struct {
	k uint64
	v uint64
}

// contents drains a tree's Ascend stream.
func contents(t *Tree[uint64, uint64]) []pair {
	var out []pair
	t.Ascend(func(k, v uint64) bool {
		out = append(out, pair{k, v})
		return true
	})
	return out
}

// applyOpsModel applies MergeOp semantics to a reference stream: per key,
// drop the first Dels matches in stream order, then place the adds after
// the surviving matches of that key.
func applyOpsModel(base []pair, ops []MergeOp[uint64, uint64]) []pair {
	rem := map[uint64]int{}
	adds := map[uint64][]uint64{}
	var keys []uint64
	for _, op := range ops {
		rem[op.Key] = op.Dels
		adds[op.Key] = op.Adds
		keys = append(keys, op.Key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Tombstone pass: drop the first rem[k] matches in stream order.
	var out []pair
	for _, p := range base {
		if rem[p.k] > 0 {
			rem[p.k]--
			continue
		}
		out = append(out, p)
	}

	// Interleave adds: for each op key, after every base survivor of it.
	var merged []pair
	ki, i := 0, 0
	for i < len(out) {
		p := out[i]
		for ki < len(keys) && keys[ki] < p.k {
			for _, v := range adds[keys[ki]] {
				merged = append(merged, pair{keys[ki], v})
			}
			ki++
		}
		if ki < len(keys) && keys[ki] == p.k {
			for i < len(out) && out[i].k == p.k {
				merged = append(merged, out[i])
				i++
			}
			for _, v := range adds[keys[ki]] {
				merged = append(merged, pair{keys[ki], v})
			}
			ki++
			continue
		}
		merged = append(merged, p)
		i++
	}
	for ; ki < len(keys); ki++ {
		for _, v := range adds[keys[ki]] {
			merged = append(merged, pair{keys[ki], v})
		}
	}
	return merged
}

func buildCOWBase(t *testing.T, keys []uint64, opts Options) *Tree[uint64, uint64] {
	t.Helper()
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) // distinct values identify duplicates
	}
	tr, err := BulkLoad(keys, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// modelSeeds is the second dimension of the randomized model matrix: every
// model runs on the seed it has always run and again on a shifted one, so
// the one window search faces a second history of duplicate runs,
// tombstones and folds. The labels are the ones the dimension carried while
// it selected a router kind and then a window search; the test floor tracks
// subtests by name, so they stay.
var modelSeeds = []struct {
	name  string
	shift int64
}{
	{"btree", 0},
	{"implicit", 1 << 20},
}

func TestMergeCOWMatchesModel(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testMergeCOWMatchesModel(t, ms.shift) })
	}
}

func testMergeCOWMatchesModel(t *testing.T, shift int64) {
	rng := rand.New(rand.NewSource(71 + shift))
	for trial := 0; trial < 40; trial++ {
		n := 200 + rng.Intn(3000)
		keys := make([]uint64, n)
		k := uint64(0)
		run := 0
		for i := range keys {
			if run > 0 {
				run-- // long duplicate runs that span page boundaries
			} else {
				if rng.Intn(3) > 0 {
					k += uint64(rng.Intn(5))
				}
				if rng.Intn(20) == 0 {
					run = 10 + rng.Intn(60)
				}
			}
			keys[i] = k
		}
		opts := Options{Error: 8 + rng.Intn(24), BufferSize: 4}
		base := buildCOWBase(t, keys, opts)
		before := contents(base)

		// Random ops over present and absent keys.
		opKeys := map[uint64]bool{}
		var ops []MergeOp[uint64, uint64]
		for len(ops) < 1+rng.Intn(60) {
			ok := uint64(rng.Intn(int(k) + 10))
			if opKeys[ok] {
				continue
			}
			opKeys[ok] = true
			op := MergeOp[uint64, uint64]{Key: ok}
			for a := rng.Intn(3); a > 0; a-- {
				op.Adds = append(op.Adds, 1_000_000+uint64(len(ops)*10+a))
			}
			// Tombstones bounded by the number of live matches.
			live := 0
			for _, p := range before {
				if p.k == ok {
					live++
				}
			}
			if live > 0 && rng.Intn(2) == 0 {
				op.Dels = 1 + rng.Intn(live)
			}
			if len(op.Adds) == 0 && op.Dels == 0 {
				op.Adds = []uint64{999}
			}
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })

		merged := base.MergeCOW(ops)
		if err := merged.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: merged invariants: %v", trial, err)
		}
		if err := base.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: base invariants after COW: %v", trial, err)
		}
		// The receiver is untouched.
		after := contents(base)
		if len(after) != len(before) {
			t.Fatalf("trial %d: base content changed: %d -> %d", trial, len(before), len(after))
		}
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("trial %d: base element %d changed: %v -> %v", trial, i, before[i], after[i])
			}
		}

		want := applyOpsModel(before, ops)
		got := contents(merged)
		if merged.Len() != len(want) {
			t.Fatalf("trial %d: merged Len = %d, want %d", trial, merged.Len(), len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged stream %d elements, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeCOWSharesPages pins the copy-on-write contract: pages outside
// the delta's dirty intervals are pointer-identical (same page identity)
// between the old and new tree.
func TestMergeCOWSharesPages(t *testing.T) {
	keys := make([]uint64, 100_000)
	rng := rand.New(rand.NewSource(5))
	k := uint64(0)
	for i := range keys {
		// Irregular gaps so segmentation produces a deep page chain.
		k += uint64(1 + rng.Intn(13))
		keys[i] = k
	}
	base := buildCOWBase(t, keys, Options{Error: 8, BufferSize: 2})
	pages := len(base.PageIDs())
	if pages < 100 {
		t.Fatalf("want a deep chain, got %d pages", pages)
	}

	// A tight cluster of writes touches a handful of pages.
	ops := []MergeOp[uint64, uint64]{
		{Key: keys[50_000], Adds: []uint64{1}},
		{Key: keys[50_002], Adds: []uint64{2}},
		{Key: keys[50_004], Dels: 1},
	}
	merged := base.MergeCOW(ops)
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	oldIDs := map[uint64]bool{}
	for _, id := range base.PageIDs() {
		oldIDs[id] = true
	}
	shared, fresh := 0, 0
	for _, id := range merged.PageIDs() {
		if oldIDs[id] {
			shared++
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("no pages were rebuilt")
	}
	if fresh > 8 {
		t.Fatalf("a 3-key delta rebuilt %d pages (shared %d of %d)", fresh, shared, pages)
	}
	if shared < pages-8 {
		t.Fatalf("only %d of %d pages shared", shared, pages)
	}
}

// TestMergeCOWTombstoneScanOrder pins "first N matches in scan order"
// across a duplicate run spanning multiple pages.
func TestMergeCOWTombstoneScanOrder(t *testing.T) {
	// Error 2 forces tiny pages, so 40 copies of key 100 span many pages.
	var keys []uint64
	for i := 0; i < 30; i++ {
		keys = append(keys, uint64(i))
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, 100)
	}
	for i := 0; i < 30; i++ {
		keys = append(keys, uint64(200+i))
	}
	base := buildCOWBase(t, keys, Options{Error: 2, BufferSize: 1})

	var orderBefore []uint64
	base.Each(100, func(v uint64) bool {
		orderBefore = append(orderBefore, v)
		return true
	})
	if len(orderBefore) != 40 {
		t.Fatalf("expected 40 duplicates, got %d", len(orderBefore))
	}

	merged := base.MergeCOW([]MergeOp[uint64, uint64]{{Key: 100, Dels: 15}})
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var orderAfter []uint64
	merged.Each(100, func(v uint64) bool {
		orderAfter = append(orderAfter, v)
		return true
	})
	if len(orderAfter) != 25 {
		t.Fatalf("expected 25 survivors, got %d", len(orderAfter))
	}
	for i, v := range orderAfter {
		if v != orderBefore[15+i] {
			t.Fatalf("survivor %d = %d, want %d (first-15-in-scan-order must die)", i, v, orderBefore[15+i])
		}
	}
}

// TestMergeCOWAddAfterMultiPageRun pins the add-placement rule when the
// key's duplicates span several pages: an insert-only op's adds must sort
// after every base match of the key, so the dirty region extends through
// the whole equal-start run.
func TestMergeCOWAddAfterMultiPageRun(t *testing.T) {
	var keys []uint64
	for i := 0; i < 10; i++ {
		keys = append(keys, uint64(i))
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, 100) // spans many pages at Error 2
	}
	for i := 0; i < 10; i++ {
		keys = append(keys, uint64(200+i))
	}
	base := buildCOWBase(t, keys, Options{Error: 2, BufferSize: 1})

	merged := base.MergeCOW([]MergeOp[uint64, uint64]{{Key: 100, Adds: []uint64{9999}}})
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	merged.Each(100, func(v uint64) bool {
		order = append(order, v)
		return true
	})
	if len(order) != 41 {
		t.Fatalf("%d matches, want 41", len(order))
	}
	if order[40] != 9999 {
		t.Fatalf("add not last: matches end %v", order[35:])
	}
}

func TestMergeCOWEdgeCases(t *testing.T) {
	// Empty receiver: pure bootstrap from adds.
	empty, err := BulkLoad[uint64, uint64](nil, nil, Options{Error: 16, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	boot := empty.MergeCOW([]MergeOp[uint64, uint64]{
		{Key: 5, Adds: []uint64{50}},
		{Key: 9, Adds: []uint64{90, 91}},
	})
	if boot.Len() != 3 {
		t.Fatalf("bootstrap Len = %d", boot.Len())
	}
	if err := boot.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := boot.Lookup(9); !ok || v != 91 {
		// Lookup may return any duplicate; both adds are acceptable.
		if !ok || v != 90 {
			t.Fatalf("bootstrap Lookup(9) = %d,%v", v, ok)
		}
	}

	// No ops: a no-op merge must not clone anything — the receiver itself
	// comes back, pointer-identical (same for an empty non-nil op list).
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	base := buildCOWBase(t, keys, Options{Error: 32, BufferSize: 8})
	if clone := base.MergeCOW(nil); clone != base {
		t.Fatal("MergeCOW(nil) did not return the receiver")
	}
	if clone := base.MergeCOW([]MergeOp[uint64, uint64]{}); clone != base {
		t.Fatal("MergeCOW(empty) did not return the receiver")
	}

	// Delete everything in one region.
	small := buildCOWBase(t, []uint64{1, 1, 1, 1}, Options{Error: 8, BufferSize: 2})
	gone := small.MergeCOW([]MergeOp[uint64, uint64]{{Key: 1, Dels: 4}})
	if gone.Len() != 0 {
		t.Fatalf("Len after deleting all = %d", gone.Len())
	}
	if err := gone.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := gone.Lookup(1); ok {
		t.Fatal("lookup hit on emptied tree")
	}

	// Ops keys below the minimum and above the maximum.
	ends := base.MergeCOW([]MergeOp[uint64, uint64]{
		{Key: 0, Adds: []uint64{1000}, Dels: 1}, // key 0 exists (i*3)
		{Key: 999_999, Adds: []uint64{2000}},
	})
	if err := ends.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := ends.Lookup(999_999); !ok || v != 2000 {
		t.Fatalf("Lookup(max) = %d,%v", v, ok)
	}
	// Two adds, one tombstone: net +1.
	if ends.Len() != base.Len()+1 {
		t.Fatalf("Len = %d, want %d", ends.Len(), base.Len()+1)
	}
}

func TestMergeCOWRejectsBadOps(t *testing.T) {
	base := buildCOWBase(t, []uint64{1, 2, 3}, Options{Error: 8})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("unsorted", func() {
		base.MergeCOW([]MergeOp[uint64, uint64]{{Key: 2}, {Key: 1}})
	})
	mustPanic("duplicate", func() {
		base.MergeCOW([]MergeOp[uint64, uint64]{{Key: 2}, {Key: 2}})
	})
}

// buildBenchTree builds an n-element tree over the weblogs workload (the
// paper's primary dataset: piecewise-linear with many segment breaks)
// outside the timed section.
func buildBenchTree(b *testing.B, n int) *Tree[uint64, uint64] {
	b.Helper()
	keys := workload.Weblogs(n, 9)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(keys, vals, Options{Error: 32, BufferSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchOps builds a delta of `delta` distinct insert keys.
func benchOps(tr *Tree[uint64, uint64], delta int) []MergeOp[uint64, uint64] {
	maxKey, _, _ := tr.Max()
	rng := rand.New(rand.NewSource(10))
	seen := map[uint64]bool{}
	var ops []MergeOp[uint64, uint64]
	for len(ops) < delta {
		k := uint64(rng.Int63n(int64(maxKey)))
		if seen[k] {
			continue
		}
		seen[k] = true
		ops = append(ops, MergeOp[uint64, uint64]{Key: k, Adds: []uint64{k}})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

// TestMergeCOW2Layering pins the two-delta entry point against the
// layered reference model: applying the second op list to the model
// stream *after* the first (so its tombstone counts address surviving
// base matches, then the first layer's adds, in scan order) must match
// MergeCOW's physical fold — the contract the Optimistic facade's
// frozen/active delta pair relies on.
func TestMergeCOW2Layering(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testMergeCOW2Layering(t, ms.shift) })
	}
}

func testMergeCOW2Layering(t *testing.T, shift int64) {
	rng := rand.New(rand.NewSource(137 + shift))
	genOps := func(stream []pair, maxKey uint64) []MergeOp[uint64, uint64] {
		opKeys := map[uint64]bool{}
		var ops []MergeOp[uint64, uint64]
		for len(ops) < 1+rng.Intn(40) {
			ok := uint64(rng.Intn(int(maxKey) + 10))
			if opKeys[ok] {
				continue
			}
			opKeys[ok] = true
			op := MergeOp[uint64, uint64]{Key: ok}
			for a := rng.Intn(3); a > 0; a-- {
				op.Adds = append(op.Adds, 2_000_000+uint64(rng.Intn(1_000_000)))
			}
			// Tombstones bounded by the layer's own view of live matches.
			live := 0
			for _, p := range stream {
				if p.k == ok {
					live++
				}
			}
			if live > 0 && rng.Intn(2) == 0 {
				op.Dels = 1 + rng.Intn(live)
			}
			if len(op.Adds) == 0 && op.Dels == 0 {
				op.Adds = []uint64{999}
			}
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		return ops
	}
	for trial := 0; trial < 30; trial++ {
		n := 200 + rng.Intn(2000)
		keys := make([]uint64, n)
		k := uint64(0)
		for i := range keys {
			if rng.Intn(3) > 0 {
				k += uint64(rng.Intn(4))
			}
			keys[i] = k
		}
		base := buildCOWBase(t, keys, Options{Error: 8 + rng.Intn(24), BufferSize: 4})
		before := contents(base)

		first := genOps(before, k)
		middle := applyOpsModel(before, first)
		// The second layer's tombstones are generated against the
		// intermediate stream, exactly like an active delta whose counts
		// are relative to tree ⊕ frozen.
		second := genOps(middle, k)
		want := applyOpsModel(middle, second)

		merged := base.MergeCOW(first, second)
		if err := merged.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: merged invariants: %v", trial, err)
		}
		got := contents(merged)
		if merged.Len() != len(want) || len(got) != len(want) {
			t.Fatalf("trial %d: merged %d elements (Len %d), want %d", trial, len(got), merged.Len(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
		// The receiver is untouched.
		after := contents(base)
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("trial %d: base element %d changed: %v -> %v", trial, i, before[i], after[i])
			}
		}
		// Degenerate layers: both empty returns the receiver itself; one
		// empty layer reduces to a plain MergeCOW of the other.
		if base.MergeCOW(nil, nil) != base {
			t.Fatalf("trial %d: empty fold did not return the receiver", trial)
		}
		oneWant := applyOpsModel(before, first)
		oneGot := contents(base.MergeCOW(first, nil))
		if len(oneGot) != len(oneWant) {
			t.Fatalf("trial %d: first-only fold %d elements, want %d", trial, len(oneGot), len(oneWant))
		}
		for i := range oneGot {
			if oneGot[i] != oneWant[i] {
				t.Fatalf("trial %d: first-only element %d = %v, want %v", trial, i, oneGot[i], oneWant[i])
			}
		}
	}
}

// benchTreeCached builds each base tree at most once per benchmark run,
// and only when a matching sub-benchmark actually executes, so a filtered
// smoke run (e.g. CI's n=100000-only pass) never pays for the other sizes.
var benchTreeCache = map[int]*Tree[uint64, uint64]{}

func benchTreeCached(b *testing.B, n int) *Tree[uint64, uint64] {
	b.Helper()
	if tr, ok := benchTreeCache[n]; ok {
		return tr
	}
	tr := buildBenchTree(b, n)
	benchTreeCache[n] = tr
	return tr
}

// BenchmarkFlushCOW measures the page-granular copy-on-write merge: cost
// should track the delta size (pages touched), not the tree size.
func BenchmarkFlushCOW(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		for _, delta := range []int{64, 1024, 8192} {
			b.Run(fmt.Sprintf("n=%d/delta=%d", n, delta), func(b *testing.B) {
				tr := benchTreeCached(b, n)
				ops := benchOps(tr, delta)
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if tr.MergeCOW(ops).Len() != n+delta {
						b.Fatal("bad merge")
					}
				}
			})
		}
	}
}

// BenchmarkFlushRebuild measures the pre-COW flush: drain the whole state
// and bulk-load a fresh tree, O(n) regardless of delta size.
func BenchmarkFlushRebuild(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		for _, delta := range []int{64, 1024, 8192} {
			b.Run(fmt.Sprintf("n=%d/delta=%d", n, delta), func(b *testing.B) {
				tr := benchTreeCached(b, n)
				ops := benchOps(tr, delta)
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					keys := make([]uint64, 0, n+delta)
					vals := make([]uint64, 0, n+delta)
					oi := 0
					tr.Ascend(func(k, v uint64) bool {
						for oi < len(ops) && ops[oi].Key < k {
							keys = append(keys, ops[oi].Key)
							vals = append(vals, ops[oi].Adds[0])
							oi++
						}
						keys = append(keys, k)
						vals = append(vals, v)
						return true
					})
					for ; oi < len(ops); oi++ {
						keys = append(keys, ops[oi].Key)
						vals = append(vals, ops[oi].Adds[0])
					}
					nt, err := BulkLoad(keys, vals, tr.Options())
					if err != nil || nt.Len() != n+delta {
						b.Fatal("bad rebuild")
					}
				}
			})
		}
	}
}

// BenchmarkFoldStream folds successive random layers of 1,024 ops (90 %
// inserts of keys held out of the load, drawn from the same Weblogs
// distribution, 10 % deletes of present keys) into one evolving tree, the
// way a facade's flush does: MergeCOW, then Recone. Unlike FlushCOW, whose
// every fold starts from a fresh load, the pages here carry residual bounds
// from earlier refits and the splits accumulate, so it shows the refit's
// bound-only path and the compaction. It reports ns per folded op and the
// pages over a BulkLoad's of the same content at the end.
func BenchmarkFoldStream(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const layer = 1024
			base, layers, final := foldStream(n, b.N, layer, 11)
			tr, err := BulkLoad(base, base, Options{Error: 32, BufferSize: 16})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, ops := range layers {
				tr = Recone(tr.MergeCOW(ops), len(ops))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*layer), "ns/folded-op")
			fresh, err := BulkLoad(final, final, tr.Options())
			if err != nil || tr.Len() != len(final) {
				b.Fatalf("%d elements, the stream leaves %d (%v)", tr.Len(), len(final), err)
			}
			b.ReportMetric(float64(tr.NumPages())/float64(fresh.NumPages()), "pages/bulkload")
		})
	}
}

// foldStream draws an ingest-shaped write stream over a Weblogs universe of
// n + n/2 keys: a random n of them sorted as the load (base), then layers
// sorted op lists of size ops each — 90 % inserts of a key not present, 10 %
// deletes (Dels: 1) of a present one, one op per key per layer, value = key
// — and the sorted content they leave (final).
func foldStream(n, layers, size int, seed int64) (base []uint64, out [][]MergeOp[uint64, uint64], final []uint64) {
	universe := workload.Weblogs(n+n/2, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	present, absent := slices.Clone(universe[:n]), universe[n:]
	base = slices.Sorted(slices.Values(present))
	out = make([][]MergeOp[uint64, uint64], layers)
	for i := range out {
		seen := map[uint64]bool{}
		ops := make([]MergeOp[uint64, uint64], 0, size)
		for len(ops) < size {
			if rng.Intn(10) == 0 {
				j := rng.Intn(len(present))
				if k := present[j]; !seen[k] {
					seen[k] = true
					ops = append(ops, MergeOp[uint64, uint64]{Key: k, Dels: 1})
					present[j], present = present[len(present)-1], present[:len(present)-1]
					absent = append(absent, k)
				}
				continue
			}
			j := rng.Intn(len(absent))
			if k := absent[j]; !seen[k] {
				seen[k] = true
				ops = append(ops, MergeOp[uint64, uint64]{Key: k, Adds: []uint64{k}})
				absent[j], absent = absent[len(absent)-1], absent[:len(absent)-1]
				present = append(present, k)
			}
		}
		slices.SortFunc(ops, func(a, b MergeOp[uint64, uint64]) int { return cmp.Compare(a.Key, b.Key) })
		out[i] = ops
	}
	return base, out, slices.Sorted(slices.Values(present))
}
