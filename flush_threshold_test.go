package fitingtree

import (
	"math/rand"
	"sync"
	"testing"
)

// manyPages bulk-loads distinct Weblogs keys under a tight bound, so the
// tree has so many pages that the tree-derived flush threshold sits well
// above its floor. Every fourth key is held out for the test to insert.
func manyPages(t *testing.T, n, segErr int) (tr *Tree[uint64, uint64], hold []uint64) {
	t.Helper()
	var bulk []uint64
	for i, k := range distinctWeblogs(n, 13) {
		if i%4 == 3 {
			hold = append(hold, k)
		} else {
			bulk = append(bulk, k)
		}
	}
	tr, err := BulkLoad(bulk, bulk, Options{Error: segErr})
	if err != nil {
		t.Fatal(err)
	}
	if derived(tr.NumPages()) < flushFloor*3/2 {
		t.Fatalf("fixture has %d pages: the derived threshold is at or near its floor", tr.NumPages())
	}
	return tr, hold
}

// derived is the documented default threshold over a tree of pages pages.
func derived(pages int) int64 { return max(flushFloor, int64(pages/2)) }

// TestFlushThresholdFollowsTree pins the data-aware default: with nothing
// pinned the threshold is half the base tree's page count (at least
// flushFloor), each fold trips on exactly the write that reaches the
// threshold of the tree then in force, and the next tree's page count sets
// the next threshold.
func TestFlushThresholdFollowsTree(t *testing.T) {
	few := distinctWeblogs(20_000, 13)
	small, err := BulkLoad(few, few, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := NewOptimistic(small).threshold(small); got != flushFloor {
		t.Fatalf("threshold over a %d-page tree = %d, want the floor %d", small.NumPages(), got, flushFloor)
	}

	tr, hold := manyPages(t, 200_000, 4)
	o := NewOptimistic(tr)
	o.SetAsyncFlush(false)
	folds := 0
	o.SetFlushHook(func() { folds++ })
	seen := map[int64]bool{}
	next := 0
	for fold := 1; fold <= 4; fold++ {
		base := o.state.Load().tree
		want := derived(base.NumPages())
		if got := o.threshold(base); got != want {
			t.Fatalf("fold %d: threshold %d over %d pages, want %d", fold, got, base.NumPages(), want)
		}
		seen[want] = true
		for i := int64(1); i < want; i++ {
			o.Insert(hold[next], hold[next])
			next++
		}
		if folds != fold-1 || o.state.Load().tree != base {
			t.Fatalf("fold %d ran before the %d-th pending write", fold, want)
		}
		o.Insert(hold[next], hold[next])
		next++
		if folds != fold || o.state.Load().delta != nil {
			t.Fatalf("the %d-th pending write did not fold (folds %d, want %d)", want, folds, fold)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("the threshold never moved across four folds: %v", seen)
	}
	if err := o.state.Load().tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushThresholdPinned pins what SetFlushEvery pins, over a tree whose
// derived threshold would be thousands: the delta freezes at exactly n
// pending writes, four times over until the ladder is full, the writer
// then absorbs up to backpressureFactor·n and folds inline on the
// write that reaches it, and the compaction scheduler's bound is the same
// multiple of n.
func TestFlushThresholdPinned(t *testing.T) {
	tr, hold := manyPages(t, 200_000, 4)
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	const n = 16
	o.SetFlushEvery(n)
	if got := o.threshold(tr); got != n {
		t.Fatalf("pinned threshold = %d, want %d", got, n)
	}
	o.flusher.Store(true) // hold the worker slot: nothing drains in the background
	next := 0
	for layer := 0; layer < maxFrozenLayers; layer++ {
		for i := 0; i < n-1; i++ {
			o.Insert(hold[next], 0)
			next++
		}
		if st := o.state.Load(); len(st.frozen) != layer || st.delta.pending() != n-1 {
			t.Fatalf("%d pending writes already froze the delta over %d layers", n-1, layer)
		}
		o.Insert(hold[next], 0)
		next++
		if st := o.state.Load(); len(st.frozen) != layer+1 || st.delta != nil {
			t.Fatalf("the %d-th pending write did not freeze the delta onto %d layers", n, layer)
		}
	}
	for i := 0; i < n*backpressureFactor-1; i++ {
		o.Insert(hold[next], 0)
		next++
	}
	if st := o.state.Load(); len(st.frozen) != maxFrozenLayers || st.delta.pending() != n*backpressureFactor-1 || o.BackpressureFolds() != 0 {
		t.Fatal("the writer folded before the pinned backpressure bound")
	}
	o.Insert(hold[next], 0)
	if st := o.state.Load(); st.frozen != nil || st.delta != nil || o.BackpressureFolds() != 1 {
		t.Fatalf("the write reaching %d×%d did not fold inline", backpressureFactor, n)
	}
	o.flusher.Store(false)

	// The scheduler: two layers of 2n fit the bound of 4n, two of 2n+1 do not.
	layer := func(pending int) *odelta[uint64, uint64] {
		var d *odelta[uint64, uint64]
		for i := 0; i < pending; i++ {
			d = d.withInsert(uint64(i), 0)
		}
		return d
	}
	at := o.threshold(o.state.Load().tree)
	if i := compactPick([]*odelta[uint64, uint64]{layer(2 * n), layer(2 * n)}, at); i != 0 {
		t.Fatalf("compactPick on two layers of %d under a pinned %d = %d, want 0", 2*n, n, i)
	}
	if i := compactPick([]*odelta[uint64, uint64]{layer(2*n + 1), layer(2*n + 1)}, at); i != -1 {
		t.Fatalf("compactPick on two layers of %d under a pinned %d = %d, want -1", 2*n+1, n, i)
	}
}

// TestFlushThresholdShards follows the threshold through the sharded
// engine: unpinned, every shard — those a rebalance builds included —
// derives its own from its own tree; SetFlushEvery pins all of them, and
// the shards of later rebalances too.
func TestFlushThresholdShards(t *testing.T) {
	tr, hold := manyPages(t, 400_000, 2)
	s, err := NewSharded(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(what string, pinned int64) {
		t.Helper()
		shards := s.set.Load().shards
		if len(shards) != 2 {
			t.Fatalf("%s: %d shards, want 2", what, len(shards))
		}
		for i, sh := range shards {
			base := sh.state.Load().tree
			want := pinned
			if pinned == 0 {
				if want = derived(base.NumPages()); want == flushFloor {
					t.Fatalf("%s: shard %d has %d pages: the derived threshold is at its floor", what, i, base.NumPages())
				}
			}
			if got := sh.threshold(base); got != want {
				t.Fatalf("%s: shard %d (%d pages) has threshold %d, want %d", what, i, base.NumPages(), got, want)
			}
		}
	}
	check("fresh", 0)
	for _, k := range hold[:20_000] {
		s.Insert(k, k)
	}
	s.SyncFlush()
	check("after folds", 0)
	old := s.set.Load()
	if err := s.rebalance(true); err != nil {
		t.Fatal(err)
	}
	if s.set.Load() == old {
		t.Fatal("forced rebalance published nothing")
	}
	check("rebalanced", 0)
	s.SetFlushEvery(32)
	check("pinned", 32)
	if err := s.rebalance(true); err != nil {
		t.Fatal(err)
	}
	check("pinned, rebalanced", 32)
}

// TestFlushThresholdPinRace pins the threshold while writers, readers and
// the background worker run on the derived one (run with -race): the
// switch must lose no write and leave a sound tree.
func TestFlushThresholdPinRace(t *testing.T) {
	tr, hold := manyPages(t, 200_000, 4)
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	base := o.Len()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				o.Lookup(hold[i%len(hold)])
			}
		}
	}()
	const writes = 30_000
	pinAt := int(derived(tr.NumPages())) * 3 / 2 // the first layer is frozen, the second filling
	pinned := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-pinned
		o.SetFlushEvery(64)
	}()
	for i := 0; i < writes; i++ {
		if i == pinAt {
			close(pinned)
		}
		o.Insert(hold[i], hold[i])
	}
	close(stop)
	wg.Wait()
	o.Close()
	if got := o.threshold(o.state.Load().tree); got != 64 {
		t.Fatalf("threshold after the pin = %d, want 64", got)
	}
	if o.Len() != base+writes {
		t.Fatalf("Len = %d, want %d", o.Len(), base+writes)
	}
	for _, k := range hold[:writes] {
		if v, ok := o.Lookup(k); !ok || v != k {
			t.Fatalf("write %d lost across the pin", k)
		}
	}
	if err := o.state.Load().tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushThresholdPagesPerWrite pins what the threshold buys: the pages a
// fold rebuilds per write (Counters.PagesMade over the writes folded).
// Folding B writes spread over P pages rebuilds about P·(1−e^(−B/P)) pages,
// so a write pays P·(1−e^(−B/P))/B of one: 0.885 at B = P/4, 0.787 at
// B = P/2. Inline folds over a fixed shuffled stream of four thresholds'
// worth of held-out keys must stay within 0.04 of the latter; the slack
// covers the extra pages a re-segmented page splits into, which ε = 16
// keeps rare (at ε = 4 they add ~17 %). A quarter of the pages reads 0.874
// here, a half 0.770.
func TestFlushThresholdPagesPerWrite(t *testing.T) {
	const bound = 0.787 + 0.04
	tr, hold := manyPages(t, 1_000_000, 16)
	rand.New(rand.NewSource(5)).Shuffle(len(hold), func(i, j int) { hold[i], hold[j] = hold[j], hold[i] })
	n := 2 * tr.NumPages() // four thresholds of pages/2
	if n > len(hold) {
		t.Fatalf("%d pages need %d held-out keys, have %d", tr.NumPages(), n, len(hold))
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(false)
	for _, k := range hold[:n] {
		o.Insert(k, k)
	}
	st := o.Stats()
	folded := n - st.Buffered
	if folded == 0 {
		t.Fatalf("%d writes over %d pages folded nothing", n, tr.NumPages())
	}
	perWrite := float64(st.Counters.PagesMade) / float64(folded)
	t.Logf("%d pages, %d writes folded: %d pages made, %.3f per write", tr.NumPages(), folded, st.Counters.PagesMade, perWrite)
	if perWrite > bound {
		t.Fatalf("folds rebuilt %.3f pages per write, want at most %.3f", perWrite, bound)
	}
	if err := o.state.Load().tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
