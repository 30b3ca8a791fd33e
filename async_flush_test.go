package fitingtree

// White-box tests for the asynchronous flush pipeline: they reach into
// the facade's published states to pin the freeze/publish transitions and
// to hold the worker slot artificially, which the black-box suite
// (package fitingtree_test) cannot do.

import (
	"testing"

	"fitingtree/internal/workload"
)

// asyncFixture bulk-loads a Weblogs-keyed facade with val == position.
func asyncFixture(t *testing.T, n int) *Optimistic[uint64, uint64] {
	t.Helper()
	keys := workload.Weblogs(n, 7)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(keys, vals, Options{Error: 32, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	// The construction-time default depends on GOMAXPROCS; these tests
	// exercise the pipeline, so enable it explicitly.
	o.SetAsyncFlush(true)
	return o
}

// TestAsyncFlushFreezePublish pins the freeze transition: the write that
// trips the threshold publishes a state whose active delta is empty and
// whose frozen slot holds the old delta (unless the background flusher
// already merged it), reads stay correct throughout, and SyncFlush leaves
// a state with no pending deltas at all.
func TestAsyncFlushFreezePublish(t *testing.T) {
	o := asyncFixture(t, 50_000)
	o.SetFlushEvery(64)
	base := o.Len()
	for i := uint64(0); i < 64; i++ {
		o.Insert(i*2+1, i)
	}
	// The 64th write froze the delta: the active delta must be empty. The
	// frozen slot is either still pending or already merged by the worker;
	// both are valid published states.
	if st := o.state.Load(); st.delta != nil {
		t.Fatalf("active delta survived the freeze: %d pending", st.delta.addN+st.delta.delN)
	}
	// Reads see every write regardless of where the pipeline is.
	for i := uint64(0); i < 64; i++ {
		if v, ok := o.Lookup(i*2 + 1); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v mid-pipeline", i*2+1, v, ok)
		}
	}
	if o.Len() != base+64 {
		t.Fatalf("Len = %d, want %d", o.Len(), base+64)
	}
	o.SyncFlush()
	if st := o.state.Load(); st.delta != nil || st.frozen != nil {
		t.Fatal("SyncFlush left a pending delta")
	}
	if o.Len() != base+64 {
		t.Fatalf("Len = %d after drain, want %d", o.Len(), base+64)
	}
	o.Close() // idempotent wrt the drain above
	o.Close()
}

// TestAsyncFlushBackpressure pins the backpressure fallback
// deterministically by claiming the worker slot (flusher=true with no
// worker running) so the frozen ladder can never drain in the background:
// with all maxFrozenLayers slots staged, writers keep absorbing into the
// active delta until it reaches backpressureFactor times the
// threshold, then the tripping writer folds the whole ladder inline.
func TestAsyncFlushBackpressure(t *testing.T) {
	o := asyncFixture(t, 20_000)
	const flushAt = 16
	o.SetFlushEvery(flushAt)
	base := o.Len()

	// Stage a full ladder by hand, one below-threshold delta per layer,
	// and hold the worker slot.
	o.flusher.Store(true) // no worker is running: the frozen ladder is now stuck
	for layer := uint64(0); layer < maxFrozenLayers; layer++ {
		for i := uint64(0); i < flushAt-1; i++ {
			o.Insert(layer*flushAt*2+i*2+1, i)
		}
		st := o.state.Load()
		if st.delta == nil || len(st.frozen) != int(layer) {
			t.Fatalf("staging layer %d expected a pure active delta over %d frozen, got delta=%v frozen=%d",
				layer, layer, st.delta != nil, len(st.frozen))
		}
		frozen := append(st.frozen[:len(st.frozen):len(st.frozen)], st.delta)
		o.state.Store(&ostate[uint64, uint64]{tree: st.tree, frozen: frozen, size: st.size})
	}
	const staged = maxFrozenLayers * (flushAt - 1)

	// Writers absorb past the trip threshold without flushing...
	limit := flushAt*backpressureFactor - 1
	for i := 0; i < limit; i++ {
		o.Insert(uint64(100_000+i*2+1), uint64(i))
		cur := o.state.Load()
		if len(cur.frozen) != maxFrozenLayers {
			t.Fatalf("frozen ladder drained to %d with the worker slot held (insert %d)", len(cur.frozen), i)
		}
		if cur.delta == nil || cur.delta.addN != i+1 {
			t.Fatalf("active delta not absorbing: insert %d", i)
		}
	}
	// ...until the write that crosses the backpressure bound folds the
	// ladder and the active delta synchronously.
	o.Insert(999_999, 0)
	cur := o.state.Load()
	if cur.frozen != nil || cur.delta != nil {
		t.Fatalf("backpressure crossing did not fold: frozen=%v delta=%v", cur.frozen != nil, cur.delta != nil)
	}
	o.flusher.Store(false) // release the artificially held worker slot
	want := base + staged + limit + 1
	if o.Len() != want {
		t.Fatalf("Len = %d, want %d", o.Len(), want)
	}
	// Every write from every stage survived the five-layer fold.
	for layer := uint64(0); layer < maxFrozenLayers; layer++ {
		for i := uint64(0); i < flushAt-1; i++ {
			if v, ok := o.Lookup(layer*flushAt*2 + i*2 + 1); !ok || v != i {
				t.Fatalf("staged write %d of layer %d lost: %d,%v", i, layer, v, ok)
			}
		}
	}
	for i := 0; i < limit; i++ {
		if v, ok := o.Lookup(uint64(100_000 + i*2 + 1)); !ok || v != uint64(i) {
			t.Fatalf("absorbed write %d lost: %d,%v", i, v, ok)
		}
	}
	if !o.Contains(999_999) {
		t.Fatal("backpressure-tripping write lost")
	}
	if err := cur.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncFlushInlineMode pins SetAsyncFlush(false): the tripping write
// folds inline — the published state immediately carries a merged tree
// and no deltas, the pre-pipeline behavior.
func TestAsyncFlushInlineMode(t *testing.T) {
	o := asyncFixture(t, 20_000)
	o.SetAsyncFlush(false)
	o.SetFlushEvery(8)
	before := o.state.Load().tree
	for i := uint64(0); i < 8; i++ {
		o.Insert(i*2+1, i)
	}
	st := o.state.Load()
	if st.frozen != nil || st.delta != nil {
		t.Fatal("inline mode left a pending delta after the trip")
	}
	if st.tree == before {
		t.Fatal("inline mode did not publish a merged tree")
	}
	// Re-enabling async restores the freeze path.
	o.SetAsyncFlush(true)
	for i := uint64(0); i < 8; i++ {
		o.Insert(uint64(1_000_000+i*2+1), i)
	}
	if st := o.state.Load(); st.delta != nil {
		t.Fatal("async re-enable: active delta survived the freeze")
	}
	o.Close()
}

// TestAsyncFlushDeleteThroughFrozen pins withDelete's layered accounting:
// with pending inserts stuck in a frozen delta (worker slot held), deletes
// must tombstone through the frozen layer — consuming base matches first,
// then frozen adds, in scan order — and report a miss only when the
// layered view is truly exhausted.
func TestAsyncFlushDeleteThroughFrozen(t *testing.T) {
	keys := []uint64{5, 7, 7, 9}
	vals := []uint64{50, 70, 71, 90}
	tr, err := BulkLoad(keys, vals, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true)
	// Two pending inserts for key 7, then freeze them by hand.
	o.Insert(7, 72)
	o.Insert(7, 73)
	st := o.state.Load()
	o.flusher.Store(true) // hold the worker slot: the frozen layer is pinned
	o.state.Store(&ostate[uint64, uint64]{tree: st.tree, frozen: []*odelta[uint64, uint64]{st.delta}, size: st.size})

	// Layered view of key 7: [70 71 72 73]. Deletes tombstone in exactly
	// that order — frozen adds are not consumable as pending inserts.
	want := [][]uint64{{71, 72, 73}, {72, 73}, {73}, {}}
	for round, exp := range want {
		if !o.Delete(7) {
			t.Fatalf("Delete(7) round %d missed", round)
		}
		var got []uint64
		o.Each(7, func(v uint64) bool { got = append(got, v); return true })
		if len(got) != len(exp) {
			t.Fatalf("round %d: Each(7) = %v, want %v", round, got, exp)
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("round %d: Each(7) = %v, want %v", round, got, exp)
			}
		}
		// Point reads agree with the head of the layered view.
		v, ok := o.Lookup(7)
		if len(exp) == 0 {
			if ok {
				t.Fatalf("round %d: Lookup(7) found %d after exhaustion", round, v)
			}
		} else if !ok {
			t.Fatalf("round %d: Lookup(7) missed, want a survivor", round)
		}
	}
	if o.Delete(7) {
		t.Fatal("Delete(7) succeeded on an exhausted layered view")
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (keys 5 and 9)", o.Len())
	}
	// Draining applies the identical accounting physically.
	o.flusher.Store(false)
	o.SyncFlush()
	if o.Contains(7) {
		t.Fatal("key 7 resurrected by the drain")
	}
	for _, k := range []uint64{5, 9} {
		if !o.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
}
