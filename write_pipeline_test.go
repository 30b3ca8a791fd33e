package fitingtree

// White-box tests for the write pipeline's three cost rules: publishing a
// write copies one descent path of the delta and leaves every older
// version intact; writer and worker never merge the same layer; a fold's
// result does not depend on how many cores rebuilt its regions.

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/workload"
)

// pipelineFixture bulk-loads n distinct even keys (value = key) into an
// inline-mode facade whose threshold never trips: writes only ever grow
// the active delta.
func pipelineFixture(t *testing.T, n int) *Optimistic[uint64, uint64] {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	tr, err := BulkLoad(keys, keys, Options{Error: 32})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(false)
	o.SetFlushEvery(1 << 30)
	return o
}

// freezeActive pushes the active delta onto the frozen ladder by hand; the
// caller holds the worker slot, so the layer stays where it is put.
func freezeActive(o *Optimistic[uint64, uint64]) {
	st := o.state.Load()
	o.state.Store(&ostate[uint64, uint64]{tree: st.tree, frozen: append(st.frozen[:len(st.frozen):len(st.frozen)], st.delta), size: st.size})
}

// distinctWeblogs returns n Weblogs timestamps, sorted, duplicates removed.
func distinctWeblogs(n int, seed int64) []uint64 {
	keys := workload.Weblogs(n, seed)
	u := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			u = append(u, k)
		}
	}
	return u
}

// randomWrites applies n random writes over the key range [0, span):
// inserts (duplicates of base and pending keys included), anonymous
// deletes and value deletes.
func randomWrites(o *Optimistic[uint64, uint64], rng *rand.Rand, n int, span uint64) {
	for i := 0; i < n; i++ {
		k := rng.Uint64() % span
		switch rng.Intn(4) {
		case 0:
			o.Delete(k)
		case 1:
			o.DeleteValue(k, k)
		default:
			o.Insert(k, k+uint64(rng.Intn(3)))
		}
	}
}

// stateView reads a state three ways over the keys [0, span): every key's
// Each run, its point lookup, and one full range scan.
type stateView struct {
	each   map[uint64][]uint64
	lookup map[uint64]uint64
	scan   [][2]uint64
}

// viewOf also pins the lookup rule: a key some layer mentions reads as the
// first match Each yields for it.
func viewOf(t *testing.T, st *ostate[uint64, uint64], span uint64) stateView {
	t.Helper()
	v := stateView{each: map[uint64][]uint64{}, lookup: map[uint64]uint64{}}
	for k := uint64(0); k < span; k++ {
		st.each(k, func(x uint64) bool { v.each[k] = append(v.each[k], x); return true })
		x, ok := st.lookup(k)
		if ok {
			v.lookup[k] = x
		}
		if st.inAnyLayer(k, keyHash(k)) && (ok != (len(v.each[k]) > 0) || ok && x != v.each[k][0]) {
			t.Fatalf("lookup(%d) = %d,%v, want the first of Each's %v", k, x, ok, v.each[k])
		}
	}
	st.ascendRange(0, span, func(k, x uint64) bool { v.scan = append(v.scan, [2]uint64{k, x}); return true })
	return v
}

// TestDeltaSnapshotIsolation holds one published state — frozen layers and
// a non-empty active delta — across a thousand later writes and requires
// each, lookup and ascendRange on it to answer exactly as they did when it
// was current: path copying must never write into a node an older version
// can reach.
func TestDeltaSnapshotIsolation(t *testing.T) {
	const span = 600
	o := pipelineFixture(t, span/2)
	rng := rand.New(rand.NewSource(41))
	randomWrites(o, rng, 300, span)
	// Freeze what is pending by hand (worker slot held), twice, so the held
	// state reads through two frozen layers and an active delta.
	o.flusher.Store(true)
	defer o.flusher.Store(false)
	for i := 0; i < 2; i++ {
		freezeActive(o)
		randomWrites(o, rng, 300, span)
	}
	held := o.state.Load()
	if len(held.frozen) != 2 || held.delta == nil {
		t.Fatalf("fixture: %d frozen layers, active=%v", len(held.frozen), held.delta != nil)
	}
	before := viewOf(t, held, span)

	randomWrites(o, rng, 1000, span)
	if o.state.Load() == held {
		t.Fatal("no write was published")
	}
	if after := viewOf(t, held, span); !reflect.DeepEqual(before, after) {
		t.Fatal("a held state changed under later writes")
	}
	// And the live state still agrees with its own fold.
	live := viewOf(t, o.state.Load(), span)
	o.SyncFlush()
	if folded := viewOf(t, o.state.Load(), span); !reflect.DeepEqual(live.scan, folded.scan) {
		t.Fatal("layered read and folded read disagree")
	}
}

// TestDeltaPublishCost pins the O(log pending) publication: the bytes one
// Insert allocates with 4096 writes pending stay within 2× of what it
// allocates with 64 pending, and under 2 KB — where copying the delta
// whole paid some 16 bytes per pending write, per write.
func TestDeltaPublishCost(t *testing.T) {
	o := pipelineFixture(t, 100_000)
	rng := rand.New(rand.NewSource(43))
	insert := func() {
		k := rng.Uint64()%200_000 | 1 // odd: absent from the base
		o.Insert(k, k)
	}
	bytesPerInsert := func(pending int) float64 {
		for o.Stats().Buffered < pending {
			insert()
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, insert)
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		t.Logf("%d pending: %.0f B and %.0f allocations per Insert", pending, b, allocs)
		return b
	}
	small, large := bytesPerInsert(64), bytesPerInsert(4096)
	if large > 2048 {
		t.Fatalf("an Insert with 4096 pending allocates %.0f B, want <= 2048", large)
	}
	if large >= 2*small {
		t.Fatalf("an Insert allocates %.0f B with 4096 pending, %.0f B with 64: want within 2x", large, small)
	}
}

// TestInsertAllocationsPerDeltaLevel pins what an Insert of a fresh key
// allocates: the entry, its adds, the delta and state headers, and one
// fixed-array node per level of the delta's map (2 levels at 64 pending
// writes, 4 at 4096), split leaves averaged in.
func TestInsertAllocationsPerDeltaLevel(t *testing.T) {
	o := pipelineFixture(t, 100_000)
	rng := rand.New(rand.NewSource(47))
	insert := func() {
		k := rng.Uint64()%200_000 | 1 // odd: absent from the base
		o.Insert(k, k)
	}
	for _, c := range []struct {
		pending int
		most    float64
	}{{64, 6}, {4096, 8}} {
		for o.Stats().Buffered < c.pending {
			insert()
		}
		if allocs := testing.AllocsPerRun(200, insert); allocs > c.most {
			t.Fatalf("an Insert with %d pending allocates %.0f objects, want <= %.0f", c.pending, allocs, c.most)
		}
	}
}

// TestOverlayMissAllocatesNothing: a lookup of a key no layer mentions,
// through a full ladder and an active delta, reaches the tree without a
// heap allocation.
func TestOverlayMissAllocatesNothing(t *testing.T) {
	o := pipelineFixture(t, 50_000)
	o.flusher.Store(true)
	defer o.flusher.Store(false)
	k := uint64(1)
	for layer := 0; layer <= maxFrozenLayers; layer++ {
		for i := 0; i < 64; i++ {
			o.Insert(k, k)
			k += 2
		}
		if layer < maxFrozenLayers {
			freezeActive(o)
		}
	}
	st := o.state.Load()
	if len(st.frozen) != maxFrozenLayers || st.delta == nil {
		t.Fatalf("fixture: %d frozen layers, active=%v", len(st.frozen), st.delta != nil)
	}
	present, absent := uint64(40_000), uint64(90_001)
	allocs := testing.AllocsPerRun(100, func() {
		if v, ok := st.lookup(present); !ok || v != present {
			t.Fatalf("lookup(%d) = %d,%v", present, v, ok)
		}
		if _, ok := st.lookup(absent); ok {
			t.Fatalf("lookup(%d) found an absent key", absent)
		}
	})
	if allocs != 0 {
		t.Fatalf("overlay miss path allocates %.1f times per pair of lookups, want 0", allocs)
	}

	// A hit: keys the layers mention — an add in the bottom layer, an add in
	// the active delta, a base match the active delta tombstones — read
	// through the per-key pass without a heap allocation.
	o.Delete(40_002)
	st = o.state.Load()
	allocs = testing.AllocsPerRun(100, func() {
		for _, k := range []uint64{1, k - 2} {
			if v, ok := st.lookup(k); !ok || v != k {
				t.Fatalf("lookup(%d) = %d,%v", k, v, ok)
			}
			n := 0
			st.each(k, func(uint64) bool { n++; return true })
			if n != 1 {
				t.Fatalf("each(%d) yields %d matches, want 1", k, n)
			}
		}
		if _, ok := st.lookup(40_002); ok {
			t.Fatal("lookup found a deleted key")
		}
	})
	if allocs != 0 {
		t.Fatalf("overlay hit path allocates %.1f times per round, want 0", allocs)
	}
}

// TestFoldBoundBurstDiscardsNoRound drives writers faster than the
// background worker can fold (tiny threshold, a second goroutine forcing
// SyncFlush) and requires that no round's merge was thrown away: whoever
// folds the ladder inline waits for the open round first, so the two
// never pay for the same layer. Content is checked
// against the oracle at the end.
func TestFoldBoundBurstDiscardsNoRound(t *testing.T) {
	u := distinctWeblogs(120_000, 5)
	var bulk, hold []uint64
	for i, k := range u {
		if i%3 == 2 {
			hold = append(hold, k)
		} else {
			bulk = append(bulk, k)
		}
	}
	tr, err := BulkLoad(bulk, bulk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	o.SetFlushEvery(32)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				o.SyncFlush()
				runtime.Gosched()
			}
		}
	}()
	for i, k := range hold {
		o.Insert(k, k)
		if i%7 == 6 {
			if !o.Delete(hold[i-3]) {
				t.Errorf("Delete(%d) missed an inserted key", hold[i-3])
			}
		}
	}
	close(stop)
	wg.Wait()
	o.Close()
	if n := o.discarded.Load(); n != 0 {
		t.Fatalf("%d background rounds were merged and thrown away, want 0", n)
	}
	want := len(bulk) + len(hold) - len(hold)/7
	if o.Len() != want {
		t.Fatalf("Len = %d, want %d", o.Len(), want)
	}
	for i, k := range hold {
		_, ok := o.Lookup(k)
		if deleted := i%7 == 3 && i+3 < len(hold); ok == deleted {
			t.Fatalf("hold[%d]=%d: present=%v, want %v", i, k, ok, !deleted)
		}
	}
	if err := o.state.Load().tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFoldDeterministic folds the same write stream on one
// processor and on four: every fold dirties far more regions than the
// fan-out threshold, and the resulting trees must agree page for page —
// chunk snapshots, page starts and sizes, statistics, maintenance counters
// and content — whichever worker's merge scratch a region went through
// and however many regions that scratch had served before.
func TestParallelFoldDeterministic(t *testing.T) {
	u := distinctWeblogs(150_000, 9)
	type result struct {
		snaps    []core.ChunkSnap[uint64, uint64]
		starts   []uint64
		sizes    []int
		stats    Stats
		counters Counters
		scan     [][2]uint64
		folds    int
	}
	run := func(procs int) (r result) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var bulk, hold []uint64
		for i, k := range u {
			if i%4 == 3 {
				hold = append(hold, k)
			} else {
				bulk = append(bulk, k)
			}
		}
		tr, err := BulkLoad(bulk, bulk, Options{Error: 8}) // small pages: many regions per fold
		if err != nil {
			t.Fatal(err)
		}
		o := NewOptimistic(tr)
		o.SetAsyncFlush(false)
		o.SetFlushEvery(4096)
		o.SetFlushHook(func() { r.folds++ })
		rng := rand.New(rand.NewSource(17))
		rng.Shuffle(len(hold), func(i, j int) { hold[i], hold[j] = hold[j], hold[i] })
		for i := 0; i < 20_000; i++ {
			switch {
			case i%9 == 8:
				o.Delete(bulk[rng.Intn(len(bulk))])
			case i%9 == 7:
				k := bulk[rng.Intn(len(bulk))]
				o.DeleteValue(k, k)
			default:
				o.Insert(hold[i], hold[i])
			}
		}
		o.SyncFlush()
		st := o.state.Load()
		if err := st.tree.CheckInvariants(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		r.snaps, r.stats, r.counters = chunkSnaps(st.tree), o.Stats(), o.Stats().Counters
		r.starts, r.sizes = st.tree.PageBounds()
		o.AscendRange(0, ^uint64(0), func(k, v uint64) bool { r.scan = append(r.scan, [2]uint64{k, v}); return true })
		return r
	}
	one, four := run(1), run(4)
	if regions := one.counters.Merges / one.folds; regions < 128 {
		t.Fatalf("%d folds rebuilt %d regions each: too few to fan out", one.folds, regions)
	}
	if one.counters.Refits == 0 {
		t.Fatal("no fold kept a page by refit")
	}
	if !reflect.DeepEqual(one.counters, four.counters) {
		t.Fatalf("Counters differ: 1 proc %+v, 4 procs %+v", one.counters, four.counters)
	}
	if !reflect.DeepEqual(one.stats, four.stats) {
		t.Fatalf("Stats differ:\n1 proc  %+v\n4 procs %+v", one.stats, four.stats)
	}
	if !reflect.DeepEqual(one.snaps, four.snaps) {
		t.Fatal("chunk snapshots differ between 1 and 4 processors")
	}
	if !reflect.DeepEqual(one.starts, four.starts) || !reflect.DeepEqual(one.sizes, four.sizes) {
		t.Fatal("page starts or sizes differ between 1 and 4 processors")
	}
	if !reflect.DeepEqual(one.scan, four.scan) {
		t.Fatal("AscendRange differs between 1 and 4 processors")
	}
}
