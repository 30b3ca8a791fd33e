package fitingtree

// White-box tests for the depth-N frozen merge ladder: they hold the
// background worker slot to stage multi-layer states deterministically and
// drive the compaction scheduler by hand, which the black-box suite
// cannot do.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fitingtree/internal/workload"
)

// TestLadderPushAbsorbBackpressure pins the writer-side ladder protocol
// deterministically (worker slot held): tripping writers push layers in
// O(1) until the ladder is full, then absorb into the active delta, and
// only past backpressureFactor × flushAt does the tripping writer
// fold everything inline — counted by BackpressureFolds. Stats must
// report the ladder: Buffered summing every frozen layer's pending
// inserts (the pre-ladder code counted exactly one frozen slot) plus the
// per-layer depth fields.
func TestLadderPushAbsorbBackpressure(t *testing.T) {
	tr, err := BulkLoad[uint64, uint64](nil, nil, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	o.SetFlushEvery(4)
	o.flusher.Store(true) // hold the worker slot: no background draining

	next := uint64(1)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			o.Insert(next, next)
			next++
		}
	}

	// Four trips push four layers; each trip leaves an empty active delta.
	for layer := 1; layer <= maxFrozenLayers; layer++ {
		insert(4)
		st := o.state.Load()
		if len(st.frozen) != layer || st.delta != nil {
			t.Fatalf("after trip %d: %d frozen layers, delta=%v", layer, len(st.frozen), st.delta != nil)
		}
	}
	s := o.Stats()
	if s.FrozenLayers != 4 {
		t.Fatalf("Stats.FrozenLayers = %d, want 4", s.FrozenLayers)
	}
	if len(s.LayerPending) != 4 || s.LayerPending[0] != 4 || s.LayerPending[1] != 4 || s.LayerPending[2] != 4 || s.LayerPending[3] != 4 {
		t.Fatalf("Stats.LayerPending = %v, want [4 4 4 4]", s.LayerPending)
	}
	if s.Buffered != 16 {
		t.Fatalf("Stats.Buffered = %d, want 16 (all frozen layers summed)", s.Buffered)
	}

	// Ladder full: the next trips absorb into the active delta instead of
	// pushing a fifth layer or folding.
	insert(15)
	st := o.state.Load()
	if len(st.frozen) != 4 || st.delta == nil || st.delta.pending() != 15 {
		t.Fatalf("absorb phase: frozen=%d delta pending=%v", len(st.frozen), st.delta)
	}
	if got := o.BackpressureFolds(); got != 0 {
		t.Fatalf("BackpressureFolds = %d during absorb, want 0", got)
	}
	// The write crossing backpressureFactor×flushAt = 16 folds inline.
	insert(1)
	st = o.state.Load()
	if len(st.frozen) != 0 || st.delta != nil {
		t.Fatalf("backpressure crossing did not fold: frozen=%d delta=%v", len(st.frozen), st.delta != nil)
	}
	if got := o.BackpressureFolds(); got != 1 {
		t.Fatalf("BackpressureFolds = %d, want 1", got)
	}
	o.flusher.Store(false)
	if o.Len() != int(next-1) {
		t.Fatalf("Len = %d, want %d", o.Len(), next-1)
	}
	for k := uint64(1); k < next; k++ {
		if v, ok := o.Lookup(k); !ok || v != k {
			t.Fatalf("key %d lost across the ladder fold: %d,%v", k, v, ok)
		}
	}
	s = o.Stats()
	if s.FrozenLayers != 0 || s.LayerPending != nil {
		t.Fatalf("clean state Stats: FrozenLayers=%d LayerPending=%v", s.FrozenLayers, s.LayerPending)
	}
}

// TestLadderLayeredSemantics stages a three-layer ladder whose layers
// interleave tombstones and duplicate adds for one key, then drives the
// compaction scheduler by hand: every read must be identical before and
// after each compaction and after the final fold — the tombstone
// relativity rule (each layer's counts are relative to everything beneath
// it) made physical. The middle compaction forces CompactOps' spill path:
// upper tombstones exhaust the base survivors and drop the lower layer's
// oldest pending add.
func TestLadderLayeredSemantics(t *testing.T) {
	tr, err := BulkLoad([]uint64{5, 7, 7, 7}, []uint64{50, 70, 71, 72}, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	o.SetFlushEvery(2)
	o.flusher.Store(true)

	// Layer 0: two tombstones on key 7 (victims 70, 71).
	o.Delete(7)
	o.Delete(7)
	// Layer 1: two pending adds for key 7.
	o.Insert(7, 73)
	o.Insert(7, 74)
	// Layer 2: two more tombstones — relative to tree ⊕ layers 0–1, so
	// they kill 72 (last base survivor) and 73 (layer 1's oldest add).
	o.Delete(7)
	o.Delete(7)

	if st := o.state.Load(); len(st.frozen) != 3 || st.delta != nil {
		t.Fatalf("staging: frozen=%d delta=%v", len(st.frozen), st.delta != nil)
	}

	expect := func(stage string) {
		t.Helper()
		var got []uint64
		o.Each(7, func(v uint64) bool { got = append(got, v); return true })
		if len(got) != 1 || got[0] != 74 {
			t.Fatalf("%s: Each(7) = %v, want [74]", stage, got)
		}
		if v, ok := o.Lookup(7); !ok || v != 74 {
			t.Fatalf("%s: Lookup(7) = %d,%v, want 74", stage, v, ok)
		}
		if v, ok := o.Lookup(5); !ok || v != 50 {
			t.Fatalf("%s: Lookup(5) = %d,%v", stage, v, ok)
		}
		var scanK, scanV []uint64
		o.AscendRange(0, 100, func(k, v uint64) bool {
			scanK = append(scanK, k)
			scanV = append(scanV, v)
			return true
		})
		if len(scanK) != 2 || scanK[0] != 5 || scanV[0] != 50 || scanK[1] != 7 || scanV[1] != 74 {
			t.Fatalf("%s: scan = %v/%v, want [5 7]/[50 74]", stage, scanK, scanV)
		}
		vals, found := o.LookupBatch([]uint64{5, 7, 9})
		if !found[0] || vals[0] != 50 || !found[1] || vals[1] != 74 || found[2] {
			t.Fatalf("%s: LookupBatch = %v,%v", stage, vals, found)
		}
		if o.Len() != 2 {
			t.Fatalf("%s: Len = %d, want 2", stage, o.Len())
		}
	}
	expect("staged")

	// Round 1: compact layers 0+1. The upper layer has no tombstones, so
	// the composition is a plain append.
	st := o.state.Load()
	if i := compactPick(st.frozen, o.flushAt.Load()); i != 0 {
		t.Fatalf("round 1: compactPick = %d, want 0", i)
	}
	o.compactPair(st, 0)
	st = o.state.Load()
	if len(st.frozen) != 2 || st.frozen[0].delN != 2 || st.frozen[0].addN != 2 {
		t.Fatalf("round 1: frozen=%d bottom addN=%d delN=%d, want 2/2/2",
			len(st.frozen), st.frozen[0].addN, st.frozen[0].delN)
	}
	expect("after compaction 1")

	// Round 2: compact the result with layer 2 — the spill case. Two
	// upper tombstones meet one base survivor: one composes into a third
	// base tombstone, the other drops the oldest pending add (73).
	if i := compactPick(st.frozen, o.flushAt.Load()); i != 0 {
		t.Fatalf("round 2: compactPick = %d, want 0", i)
	}
	o.compactPair(st, 0)
	st = o.state.Load()
	if len(st.frozen) != 1 || st.frozen[0].delN != 3 || st.frozen[0].addN != 1 {
		t.Fatalf("round 2: frozen=%d bottom addN=%d delN=%d, want 1/1/3",
			len(st.frozen), st.frozen[0].addN, st.frozen[0].delN)
	}
	expect("after compaction 2")

	// Round 3: a single layer folds into the base tree.
	if i := compactPick(st.frozen, o.flushAt.Load()); i != -1 {
		t.Fatalf("round 3: compactPick = %d, want -1 (fold)", i)
	}
	o.foldBottom(st)
	st = o.state.Load()
	if len(st.frozen) != 0 || st.tree.Len() != 2 {
		t.Fatalf("round 3: frozen=%d tree len=%d", len(st.frozen), st.tree.Len())
	}
	expect("after fold")
	o.flusher.Store(false)
}

// TestLadderSchedulerPick pins the size-tiered scheduling policy in
// isolation: compact the bottom-most adjacent pair while the lower layer
// is within compactTierFactor of the upper and the pair fits the
// backpressure bound; otherwise fold.
func TestLadderSchedulerPick(t *testing.T) {
	layer := func(n int) *odelta[uint64, uint64] { return &odelta[uint64, uint64]{addN: n} }
	ladder := func(ns ...int) []*odelta[uint64, uint64] {
		out := make([]*odelta[uint64, uint64], len(ns))
		for i, n := range ns {
			out[i] = layer(n)
		}
		return out
	}
	const flushAt = 4 // bound = backpressureFactor*4 = 16
	cases := []struct {
		ns   []int
		want int
	}{
		{[]int{4, 4, 4}, 0},   // comparable sizes: compact the bottom pair
		{[]int{13, 3, 4}, 1},  // bottom outgrew tiering; next pair is fine
		{[]int{16, 4}, -1},    // tiering ok but pair exceeds the bound: fold
		{[]int{1}, -1},        // single layer: nothing to compact
		{[]int{20, 1, 1}, 1},  // oversized bottom skipped, upper pair compacts
		{[]int{3, 12, 48}, 0}, // growing ladder still compacts bottom-up
	}
	for _, tc := range cases {
		if got := compactPick(ladder(tc.ns...), flushAt); got != tc.want {
			t.Fatalf("compactPick(%v) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

// TestLadderModelRandomizedPump is the randomized multi-layer harness: a
// ladder facade (worker slot held, scheduler driven by hand at random
// points) runs the same randomized op stream with distinct value ids as a
// reference facade in pure inline-flush mode. With identical flush
// thresholds the two have identical trip points, so every observation —
// full scans, per-key Each sequences, Len, Delete outcomes — must match
// exactly at all times, whatever interleaving of compactions and folds
// the pump chooses. A wrong tombstone-spill decision or a reordered
// duplicate anywhere in the N-layer accounting shows up as a value-id
// mismatch. The ladder is maxFrozenLayers deep; the depth labels only
// offset the seed and keep the subtest names stable.
func TestLadderModelRandomizedPump(t *testing.T) {
	for _, ms := range modelSeeds {
		for _, depth := range []int{1, 2, 4, 8} {
			ms, depth := ms, depth
			t.Run(ms.name+"/depth="+string(rune('0'+depth)), func(t *testing.T) {
				testLadderModelRandomizedPump(t, ms.shift+int64(depth)*1009)
			})
		}
	}
}

// modelSeeds is the second dimension of the randomized models in this
// package: each model runs on the seed it has always run and again on a
// shifted one, so the one window search faces a second op history. The
// labels are the ones the dimension carried while it selected a router kind
// and then a window search; the test floor tracks subtests by name, so they
// stay.
var modelSeeds = []struct {
	name  string
	shift int64
}{{"btree", 0}, {"implicit", 1 << 20}}

func testLadderModelRandomizedPump(t *testing.T, seed int64) {
	const flushAt = 8
	rng := rand.New(rand.NewSource(seed + 7))
	base := make([]uint64, 800)
	for i := range base {
		base[i] = uint64(rng.Intn(200) * 4)
	}
	sortU64s(base)
	vals := make([]uint64, len(base))
	nextVal := uint64(1 << 32)
	for i := range vals {
		vals[i] = nextVal
		nextVal++
	}
	build := func() *Optimistic[uint64, uint64] {
		tr, err := BulkLoad(append([]uint64(nil), base...), append([]uint64(nil), vals...),
			Options{Error: 24, BufferSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		return NewOptimistic(tr)
	}
	lad := build()
	lad.SetAsyncFlush(true)
	lad.SetFlushEvery(flushAt)
	lad.flusher.Store(true) // the test is the scheduler
	ref := build()
	ref.SetAsyncFlush(false)
	ref.SetFlushEvery(flushAt)

	compactions, folds := 0, 0
	pump := func() {
		st := lad.state.Load()
		if len(st.frozen) == 0 {
			return
		}
		if i := compactPick(st.frozen, flushAt); i >= 0 {
			lad.compactPair(st, i)
			compactions++
		} else {
			lad.foldBottom(st)
			folds++
		}
	}
	compare := func(step int) {
		t.Helper()
		if lad.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs reference %d", step, lad.Len(), ref.Len())
		}
		var wantK, wantV []uint64
		ref.AscendRange(0, 1<<62, func(k, v uint64) bool {
			wantK = append(wantK, k)
			wantV = append(wantV, v)
			return true
		})
		i := 0
		lad.AscendRange(0, 1<<62, func(k, v uint64) bool {
			if i >= len(wantK) || k != wantK[i] || v != wantV[i] {
				t.Fatalf("step %d: scan[%d] = (%d,%d), reference (%d,%d)", step, i, k, v, wantK[i], wantV[i])
			}
			i++
			return true
		})
		if i != len(wantK) {
			t.Fatalf("step %d: scan visited %d, reference %d", step, i, len(wantK))
		}
		for j := 0; j < 64; j++ {
			k := uint64(rng.Intn(900))
			var want, got []uint64
			ref.Each(k, func(v uint64) bool { want = append(want, v); return true })
			lad.Each(k, func(v uint64) bool { got = append(got, v); return true })
			if len(got) != len(want) {
				t.Fatalf("step %d: Each(%d) = %v, reference %v", step, k, got, want)
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("step %d: Each(%d) = %v, reference %v", step, k, got, want)
				}
			}
			v, ok := lad.Lookup(k)
			if ok != (len(want) > 0) {
				t.Fatalf("step %d: Lookup(%d) found=%v, reference has %d", step, k, ok, len(want))
			}
			if ok {
				member := false
				for _, w := range want {
					if v == w {
						member = true
						break
					}
				}
				if !member {
					t.Fatalf("step %d: Lookup(%d) = %d not in live set %v", step, k, v, want)
				}
			}
		}
	}

	for step := 0; step < 1600; step++ {
		k := uint64(rng.Intn(900))
		if rng.Intn(3) == 0 {
			if got, want := lad.Delete(k), ref.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, reference %v", step, k, got, want)
			}
		} else {
			lad.Insert(k, nextVal)
			ref.Insert(k, nextVal)
			nextVal++
		}
		// Keep the ladder below capacity so writers never absorb past the
		// trip point (the reference folds exactly at it), plus random
		// extra scheduler rounds so checks land on every ladder shape.
		for len(lad.state.Load().frozen) >= maxFrozenLayers {
			pump()
		}
		if rng.Intn(4) == 0 {
			pump()
		}
		if step%320 == 319 {
			compare(step)
		}
	}
	if compactions == 0 {
		t.Fatalf("seed %d run never compacted (folds=%d)", seed, folds)
	}
	lad.flusher.Store(false)
	lad.SyncFlush()
	ref.SyncFlush()
	compare(-1)
}

// sortU64s sorts a uint64 slice ascending (tiny local helper: the
// exported test utilities live in the black-box package).
func sortU64s(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestLadderCompactionStress races writers against the live background
// worker at a small threshold and depth 4, so pushes, compactions, folds
// and latch-free reads constantly interleave (run with -race). The final
// drain must account for every acknowledged write.
func TestLadderCompactionStress(t *testing.T) {
	keys := workload.Weblogs(30_000, 11)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(keys, vals, Options{Error: 32, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	o.SetFlushEvery(32)
	baseLen := o.Len()

	var inserted, deleted atomic.Int64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(60_000))
				o.Lookup(k)
				o.Each(k, func(uint64) bool { return true })
				if rng.Intn(8) == 0 {
					o.AscendRange(k, k+512, func(uint64, uint64) bool { return true })
					o.Stats()
				}
			}
		}(int64(r) * 17)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 8_000; i++ {
				if rng.Intn(4) == 0 {
					if o.Delete(uint64(rng.Intn(60_000))) {
						deleted.Add(1)
					}
				} else {
					o.Insert(uint64(rng.Intn(60_000)), uint64(i))
					inserted.Add(1)
				}
			}
		}(1000 + int64(w)*29)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	o.Close()
	want := baseLen + int(inserted.Load()) - int(deleted.Load())
	if o.Len() != want {
		t.Fatalf("Len = %d, want %d after drain", o.Len(), want)
	}
	if st := o.state.Load(); len(st.frozen) != 0 || st.delta != nil {
		t.Fatal("Close left pending layers")
	}
}
