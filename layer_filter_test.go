package fitingtree

// White-box tests for the delta layers' membership filters: a filter never
// hides a key its layer holds, however the shared active filter grows
// under held versions, and a miss really skips the layers.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fitingtree/internal/core"
)

// HoldFlushWorker keeps o's background flush worker from starting, so the
// deltas its writes push onto the frozen ladder stay there. It lets the
// external benchmarks read through a full ladder held still.
func HoldFlushWorker[K Key, V any](o *Optimistic[K, V]) { o.flusher.Store(true) }

// MaxFrozenLayers exports the merge ladder's depth to the external tests
// and benchmarks.
const MaxFrozenLayers = maxFrozenLayers

type namedKey uint64

// TestLayerFilterNoFalseNegatives holds every state an Optimistic publishes
// while its active delta grows through several filter growths, and
// requires each held state's layers to find every key they hold and its
// reads to answer as they did when it was current. Keys are probed in the
// form the test names: a float ±0 is inserted as +0 and probed as -0.
func TestLayerFilterNoFalseNegatives(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		filterGrowth(t, func(i int) uint64 { return uint64(i) }, func(k uint64) uint64 { return k })
	})
	t.Run("float64", func(t *testing.T) {
		negZero := func(k float64) float64 {
			if k == 0 {
				return math.Copysign(0, -1)
			}
			return k
		}
		filterGrowth(t, func(i int) float64 { return float64(i) }, negZero)
	})
	t.Run("string", func(t *testing.T) {
		filterGrowth(t, func(i int) string { return fmt.Sprintf("k%07d", i) }, func(k string) string { return k })
	})
	t.Run("named", func(t *testing.T) {
		filterGrowth(t, func(i int) namedKey { return namedKey(i) }, func(k namedKey) namedKey { return k })
	})
}

// filterGrowth drives one key type through TestLayerFilterNoFalseNegatives:
// 4096 inserts of fresh keys, a tombstone-only entry on a base key every
// eighth write, and a value delete dropping the newest entry every
// sixteenth, all into one active delta.
func filterGrowth[K Key](t *testing.T, keyOf func(int) K, probe func(K) K) {
	const pending, base = 4096, 512
	baseKeys, baseVals := make([]K, base), make([]int, base)
	for j := range baseKeys {
		baseKeys[j], baseVals[j] = keyOf(pending+j), pending+j
	}
	tr, err := BulkLoad(baseKeys, baseVals, Options{Error: 32})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(false)
	o.SetFlushEvery(1 << 30)

	type held struct {
		st   *ostate[K, int]
		k    K
		v    int
		ok   bool
		each []int
	}
	read := func(st *ostate[K, int], k K) (v int, ok bool, each []int) {
		st.each(probe(k), func(x int) bool { each = append(each, x); return true })
		v, ok = st.lookup(probe(k))
		return v, ok, each
	}
	var hs []held
	record := func(k K, want int, present bool) {
		st := o.state.Load()
		v, ok, each := read(st, k)
		if ok != present || ok && v != want {
			t.Fatalf("write %d: lookup(%v) = %d,%v, want %d,%v", len(hs), k, v, ok, want, present)
		}
		hs = append(hs, held{st, k, v, ok, each})
	}
	for i := 0; i < pending; i++ {
		o.Insert(keyOf(i), i)
		record(keyOf(i), i, true)
		if i%8 == 7 {
			k := keyOf(pending + i/8)
			o.Delete(k)
			record(k, 0, false)
		}
		if i%16 == 15 {
			o.DeleteValue(keyOf(i), i)
			record(keyOf(i), 0, false)
		}
	}

	// holds reports whether every key of d's map is found through its filter.
	holds := func(d *odelta[K, int]) (K, bool) {
		var miss K
		ok := true
		d.m.Ascend(func(k K, _ *core.MergeOp[K, int]) bool {
			ok = d.find(probe(k), keyHash(probe(k))) != nil
			miss = k
			return ok
		})
		return miss, ok
	}
	growths := 0
	for i, h := range hs {
		d := h.st.delta
		grew := i == 0 || len(d.f) != len(hs[i-1].st.delta.f)
		if grew || i == len(hs)-1 {
			if i > 0 && grew {
				growths++
			}
			if k, ok := holds(d); !ok {
				t.Fatalf("state %d: the filter (capacity %d) hides %v", i, d.f.capacity(), k)
			}
		}
		for _, r := range hs[max(0, i-31) : i+1] {
			if e, _ := d.m.Get(r.k); e != nil && d.find(probe(r.k), keyHash(probe(r.k))) == nil {
				t.Fatalf("state %d: the filter hides %v", i, r.k)
			}
		}
		if v, ok, each := read(h.st, h.k); v != h.v || ok != h.ok || !reflect.DeepEqual(each, h.each) {
			t.Fatalf("state %d: reads of %v moved from %d,%v,%v to %d,%v,%v", i, h.k, h.v, h.ok, h.each, v, ok, each)
		}
	}
	n := hs[len(hs)-1].st.delta.m.Len()
	t.Logf("%d held states, %d filter growths, %d entries", len(hs), growths, n)
	if growths < 3 || n < 4096 {
		t.Fatalf("fixture: %d filter growths over %d entries, want >= 3 over >= 4096", growths, n)
	}
}

// TestLayerFilterConcurrentGrowth: readers walk held states — every key
// each one holds, through lookup and through its layer's filter — while
// the writer keeps growing the shared active filter under them.
func TestLayerFilterConcurrentGrowth(t *testing.T) {
	const n = 4096
	o := pipelineFixture(t, 1000)
	var snaps [n]atomic.Pointer[ostate[uint64, uint64]]
	var written atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := int(written.Load())
				if w == 0 {
					continue
				}
				j := rng.Intn(w)
				st := snaps[j].Load()
				for i := max(0, j-15); i <= j; i++ {
					k := uint64(2*i + 1)
					if v, ok := st.lookup(k); !ok || v != k {
						errs <- fmt.Errorf("state %d: lookup(%d) = %d,%v", j, k, v, ok)
						return
					}
					if st.delta.find(k, keyHash(k)) == nil {
						errs <- fmt.Errorf("state %d: the filter hides %d", j, k)
						return
					}
				}
			}
		}(int64(r))
	}
	for i := 0; i < n; i++ {
		k := uint64(2*i + 1)
		o.Insert(k, k)
		snaps[i].Store(o.state.Load())
		written.Store(int64(i + 1))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLayeredMissSkipsLayers: on a full ladder, at most 5 % of
// absent keys descend into any layer's map, and a key a layer mentions
// still descends into that layer.
func TestLayeredMissSkipsLayers(t *testing.T) {
	// TestOverlayMissAllocatesNothing's ladder: 64 fresh odd keys in each
	// frozen layer and in the active delta.
	o := pipelineFixture(t, 50_000)
	o.flusher.Store(true)
	defer o.flusher.Store(false)
	next := uint64(1)
	for layer := 0; layer <= maxFrozenLayers; layer++ {
		for i := 0; i < 64; i++ {
			o.Insert(next, next)
			next += 2
		}
		if layer < maxFrozenLayers {
			freezeActive(o)
		}
	}
	st := o.state.Load()
	if len(st.frozen) != maxFrozenLayers || st.delta == nil {
		t.Fatalf("fixture: %d frozen layers, active=%v", len(st.frozen), st.delta != nil)
	}
	descents := 0
	onDescend = func(any) { descents++ }
	defer func() { onDescend = nil }()

	const probes = 10_000
	descended := 0
	for i := uint64(0); i < probes; i++ {
		before := descents
		if _, ok := st.lookup(next + 2*i); ok { // odd keys past every layer's
			t.Fatalf("lookup(%d) found an absent key", next+2*i)
		}
		if descents > before {
			descended++
		}
	}
	t.Logf("%d of %d absent probes descended into a layer", descended, probes)
	if descended > probes/20 {
		t.Fatalf("%d of %d absent probes descended into a layer, want <= 5 %%", descended, probes)
	}

	for j, d := range append(st.frozen[:len(st.frozen):len(st.frozen)], st.delta) {
		k := uint64(1 + 2*64*j) // the layer's first key
		hit := false
		onDescend = func(layer any) { hit = hit || layer == any(d) }
		if v, ok := st.lookup(k); !ok || v != k {
			t.Fatalf("lookup(%d) = %d,%v", k, v, ok)
		}
		if !hit {
			t.Fatalf("lookup(%d) skipped layer %d, which holds it", k, j)
		}
	}
}
