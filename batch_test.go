package fitingtree_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fitingtree"
	"fitingtree/internal/bench"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
	"fitingtree/keycodec"
)

// batchLens are the batch lengths the differential checks cut their probes
// to: empty, one key, and one below, at and one above the sizes a kernel
// group could have, up to the canonical benchmark's 256.
var batchLens = []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257}

// batchReader is what the differential checks need of a tree or a store.
type batchReader[K fitingtree.Key] interface {
	Lookup(K) (uint64, bool)
	LookupBatch([]K) ([]uint64, []bool)
}

// checkBatchMatchesLookup checks tr.LookupBatch against per-key Lookup for
// probes in the order given and ascending, whole and cut to batchLens.
func checkBatchMatchesLookup[K fitingtree.Key](t *testing.T, what string, tr batchReader[K], probes []K) {
	t.Helper()
	ascending := append([]K(nil), probes...)
	sort.Slice(ascending, func(i, j int) bool { return ascending[i] < ascending[j] })
	for _, order := range [][]K{probes, ascending} {
		for _, n := range append([]int{len(order)}, batchLens...) {
			batch := order[:min(n, len(order))]
			vals, found := tr.LookupBatch(batch)
			if len(vals) != len(batch) || len(found) != len(batch) {
				t.Fatalf("%s: result lengths %d/%d for %d probes", what, len(vals), len(found), len(batch))
			}
			for i, k := range batch {
				wv, wok := tr.Lookup(k)
				if found[i] != wok || (wok && vals[i] != wv) {
					t.Fatalf("%s: batch of %d, [%d] key %v = (%d,%v), Lookup = (%d,%v)",
						what, len(batch), i, k, vals[i], found[i], wv, wok)
				}
			}
		}
	}
}

// TestLookupBatchMatchesLookup checks LookupBatch against per-key Lookup
// over duplicate-heavy data and post-churn trees
// whose page chains have buffered inserts, tombstoned pages and duplicate
// runs — in probe order and ascending, at every length around the batch
// kernel's group size — then over string keys (prefix sidecar, fixed-width
// and not) and float keys with a NaN probe.
func TestLookupBatchMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1500) * 3) // dense duplicates
	}
	sortU64(keys)
	tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...),
		fitingtree.Options{Error: 24, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	checkBatch := func(probes []uint64) {
		t.Helper()
		vals, found := tr.LookupBatch(probes)
		if len(vals) != len(probes) || len(found) != len(probes) {
			t.Fatalf("result lengths %d/%d for %d probes", len(vals), len(found), len(probes))
		}
		for i, k := range probes {
			wv, wok := tr.Lookup(k)
			if found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("batch[%d] key %d = (%d,%v), Lookup = (%d,%v)",
					i, k, vals[i], found[i], wv, wok)
			}
		}
	}

	// Mixed hits and misses, unsorted, with repeats.
	probes := make([]uint64, 700)
	for i := range probes {
		probes[i] = uint64(rng.Intn(4800))
	}
	checkBatch(probes)
	presorted := append([]uint64(nil), probes...)
	sortU64(presorted)
	checkBatch(presorted)
	checkBatch(nil)
	checkBatch([]uint64{keys[0], keys[len(keys)-1], keys[0]})
	checkBatchMatchesLookup(t, "bulk-loaded", tr, probes)

	// Every page's start — inside the duplicate runs, a key whose
	// matches spill into the pages before the one it is routed to —
	// shuffled between keys below the first start and above the last.
	starts, _ := tr.PageBounds()
	edges := append([]uint64{0, 1, keys[len(keys)-1] + 1, math.MaxUint64}, starts...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	checkBatchMatchesLookup(t, "page starts", tr, edges)

	// The walk-back: a page that still starts at a key it no longer
	// holds, while the tail of the page before it does. Distinct values
	// let DeleteValue take the matches out of the later page only.
	byIndex := make([]uint64, len(keys))
	for i := range byIndex {
		byIndex[i] = uint64(i)
	}
	spill, err := fitingtree.BulkLoad(keys, byIndex, fitingtree.Options{Error: 24, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var eroded []uint64
	starts, weights := spill.PageBounds()
	for j, at := 1, weights[0]; j < len(starts); at, j = at+weights[j], j+1 {
		k := starts[j]
		if keys[at-1] != k || (j+1 < len(starts) && starts[j+1] == k) || keys[at+weights[j]-1] == k {
			continue // no spill, not the run's last page, or nothing but k in it
		}
		for i := at; keys[i] == k; i++ {
			if !spill.DeleteValue(k, uint64(i)) {
				t.Fatalf("DeleteValue(%d, %d) found nothing", k, i)
			}
		}
		eroded = append(eroded, k)
	}
	if len(eroded) == 0 {
		t.Fatal("no page starts inside a duplicate run")
	}
	if err := spill.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesLookup(t, "eroded page starts", spill, append(eroded, probes...))
	_, found := spill.LookupBatch(eroded)
	for i, ok := range found {
		if !ok {
			t.Fatalf("key %d, still in the page before the one it starts, not found", eroded[i])
		}
	}

	// Churn the tree so batches traverse buffers and rebuilt pages.
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(4800))
		if rng.Intn(3) == 0 {
			tr.Delete(k)
		} else {
			tr.Insert(k, k)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkBatch(probes)
	checkBatch(presorted)
	// Buffered inserts, windows widened by in-place deletes, and the
	// page starts of the churned chain.
	checkBatchMatchesLookup(t, "churned", tr, probes)
	starts, _ = tr.PageBounds()
	checkBatchMatchesLookup(t, "churned page starts", tr, starts)

	// Sparse probes force the chain walk to give up and re-descend.
	sparse := make([]uint64, 64)
	for i := range sparse {
		sparse[i] = uint64(i * 997)
	}
	checkBatch(sparse)

	// String keys: every page carries a prefix sidecar, which the batch
	// kernel leaves to the point path — keycodec encodings (fixed 8 bytes,
	// the sidecar is the key) and free-form strings that tie on the prefix.
	const n = 4000
	for name, key := range map[string]func(i int) string{
		"fixed8":   func(i int) string { return keycodec.Uint64(uint64(i) * 7) },
		"freeform": func(i int) string { return fmt.Sprintf("user/%07d/profile", i*7) },
	} {
		keys, vals := make([]string, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = key(i), uint64(i)
		}
		tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 16})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		probes := []string{"", "zzzz", keys[0], keys[n-1]}
		for i := 0; i < 600; i++ {
			k := key(rng.Intn(n))
			if i%4 == 0 {
				k += "x" // absent, and not 8 bytes
			}
			probes = append(probes, k)
		}
		checkBatchMatchesLookup(t, name+" strings", tr, probes)
	}

	// Float keys: NaN is a miss wherever it sits in the batch, and the
	// keys around it are answered as if it were not there.
	fkeys, fvals := make([]float64, n), make([]uint64, n)
	for i := range fkeys {
		fkeys[i], fvals[i] = float64(i)*1.5-100, uint64(i)
	}
	ftr, err := fitingtree.BulkLoad(fkeys, fvals, fitingtree.Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, probes := range [][]float64{
		{nan}, {nan, -100, 0.5, 2}, {-100, nan, 2}, {2, -100, nan}, {-1e9, -100, 2, 1e9, math.Inf(1), nan, math.Inf(-1)},
	} {
		vals, found := ftr.LookupBatch(probes)
		for i, k := range probes {
			wv, wok := ftr.Lookup(k)
			if found[i] != wok || (wok && vals[i] != wv) || (k != k && found[i]) {
				t.Fatalf("float batch %v: [%d] = (%d,%v), Lookup = (%d,%v)", probes, i, vals[i], found[i], wv, wok)
			}
		}
	}
}

func TestLookupBatchEmptyTree(t *testing.T) {
	tr, err := fitingtree.BulkLoad[uint64, uint64](nil, nil, fitingtree.Options{Error: 10})
	if err != nil {
		t.Fatal(err)
	}
	vals, found := tr.LookupBatch([]uint64{1, 2, 3})
	for i := range vals {
		if found[i] || vals[i] != 0 {
			t.Fatalf("empty tree batch[%d] = (%d,%v)", i, vals[i], found[i])
		}
	}
}

// TestFacadeLookupBatch checks the facades' batch entry points, including
// the optimistic facade's delta overlay (pending inserts and tombstones
// must be visible to batch reads).
func TestFacadeLookupBatch(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 2)
	}
	build := func() *fitingtree.Tree[uint64, uint64] {
		tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...), fitingtree.Options{Error: 32})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	probes := []uint64{0, 1, 2, 100, 101, 1998, 5000}

	c := bench.NewConcurrent(build())
	vals, found := c.LookupBatch(probes)
	for i, k := range probes {
		wantOK := k < 2000 && k%2 == 0
		if found[i] != wantOK || (wantOK && vals[i] != k) {
			t.Fatalf("Concurrent batch[%d] key %d = (%d,%v)", i, k, vals[i], found[i])
		}
	}

	o := fitingtree.NewOptimistic(build())
	o.SetFlushEvery(1 << 20) // keep writes in the delta
	o.Insert(101, 101)       // pending insert
	o.Delete(100)            // pending tombstone
	vals, found = o.LookupBatch(probes)
	for i, k := range probes {
		wantOK := (k < 2000 && k%2 == 0 && k != 100) || k == 101
		if found[i] != wantOK || (wantOK && vals[i] != k) {
			t.Fatalf("Optimistic batch[%d] key %d = (%d,%v)", i, k, vals[i], found[i])
		}
	}

	// The sharded stores route the same pending insert and tombstone to
	// their owning shards; the batch is answered in probe order, ascending
	// (cut at the fences) and not (routed key by key).
	s, d := shardedBatchStores(t, len(keys), 3) // the same even keys
	defer s.Close()
	defer d.Close()
	s.SetFlushEvery(1 << 20)
	d.SetFlushEvery(1 << 20)
	s.Insert(101, 101)
	s.Delete(100)
	if err := d.Insert(101, 101); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(100); err != nil {
		t.Fatal(err)
	}
	reversed := []uint64{5000, 1998, 101, 100, 2, 1, 0}
	for name, batch := range map[string]func([]uint64) ([]uint64, []bool){"Sharded": s.LookupBatch, "DurableSharded": d.LookupBatch} {
		for _, order := range [][]uint64{probes, reversed} {
			vals, found := batch(order)
			for i, k := range order {
				wantOK := (k < 2000 && k%2 == 0 && k != 100) || k == 101
				if found[i] != wantOK || (wantOK && vals[i] != k) {
					t.Fatalf("%s batch[%d] key %d = (%d,%v)", name, i, k, vals[i], found[i])
				}
			}
		}
	}

	// An empty shard between two full ones: every key of the middle shard
	// is deleted and the deletions folded, so its base tree has no page.
	// Batches across all three shards, on the first shard only and on the
	// empty one only, in both orders and at the lengths around a kernel
	// group, must answer like Lookup.
	s.SetRebalanceFactor(math.Inf(1)) // keep the emptied shard
	d.SetRebalanceFactor(math.Inf(1))
	bounds := s.Bounds()
	for k := bounds[0]; k < bounds[1]; k++ {
		s.Delete(k)
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	s.SyncFlush()
	d.SyncFlush()
	if sizes := s.ShardSizes(); len(sizes) != 3 || sizes[1] != 0 {
		t.Fatalf("shard sizes %v, want an empty middle shard", sizes)
	}
	rng := rand.New(rand.NewSource(17))
	spread := func(lo, hi uint64) []uint64 {
		out := make([]uint64, 300)
		for i := range out {
			out[i] = lo + uint64(rng.Int63n(int64(hi-lo)))
		}
		return out
	}
	for name, st := range map[string]batchReader[uint64]{"Sharded": s, "DurableSharded": d} {
		for what, probes := range map[string][]uint64{
			"all shards": spread(0, 2100), "first shard": spread(0, bounds[0]), "empty shard": spread(bounds[0], bounds[1]),
		} {
			checkBatchMatchesLookup(t, name+", "+what, st, probes)
			for _, k := range probes {
				want := k%2 == 0 && k < 2000 && (k < bounds[0] || k >= bounds[1])
				if _, ok := st.Lookup(k); ok != want && k != 100 && k != 101 {
					t.Fatalf("%s, %s: Lookup(%d) = %v with shard 1 emptied", name, what, k, ok)
				}
			}
		}
	}
}

// shardedBatchStores builds a Sharded and a DurableSharded (MemFS) over
// the even keys below 2n, value = key, split into shards shards.
func shardedBatchStores(t testing.TB, n, shards int) (*fitingtree.Sharded[uint64, uint64], *fitingtree.DurableSharded[uint64, uint64]) {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 2)
	}
	build := func() *fitingtree.Tree[uint64, uint64] {
		tr, err := fitingtree.BulkLoad(keys, keys, fitingtree.Options{Error: 32})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	s, err := fitingtree.NewSharded(build(), shards)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fitingtree.CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), build(), shards)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != shards || d.Shards() != shards {
		t.Fatalf("built %d and %d shards, want %d", s.Shards(), d.Shards(), shards)
	}
	return s, d
}

// TestShardedLookupBatchOneSnapshot pins the batch's consistency contract
// behind shards: one call reads each shard through one snapshot, so a
// batch repeating a key that a writer keeps toggling never reports two
// different answers for it — whether the batch is ascending (one sub-batch
// per shard) or not (routed key by key). Run with -race.
func TestShardedLookupBatchOneSnapshot(t *testing.T) {
	const n, hot = 40_000, uint64(30_001) // hot is absent from the base
	s, d := shardedBatchStores(t, n, 4)
	defer s.Close()
	defer d.Close()
	stores := []struct {
		name   string
		toggle func(insert bool)
		batch  func([]uint64) ([]uint64, []bool)
		knobs  interface {
			SetAsyncFlush(bool)
			SetFlushEvery(int)
		}
	}{
		{"Sharded", func(insert bool) {
			if insert {
				s.Insert(hot, hot)
			} else {
				s.Delete(hot)
			}
		}, s.LookupBatch, s},
		{"DurableSharded", func(insert bool) {
			var err error
			if insert {
				err = d.Insert(hot, hot)
			} else {
				_, err = d.Delete(hot)
			}
			if err != nil {
				t.Error(err)
			}
		}, d.LookupBatch, d},
	}
	ascending := make([]uint64, 256)
	mixed := make([]uint64, 256)
	for i := range mixed {
		ascending[i] = hot
		mixed[i] = hot
		if i%2 == 1 {
			mixed[i] = uint64(2*n - 312*i) // descends across every fence
		}
	}
	for _, st := range stores {
		st.knobs.SetAsyncFlush(true)
		st.knobs.SetFlushEvery(8) // folds and freezes race the reads
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st.toggle(i%2 == 0)
			}
		}()
		// At least 400 rounds, and on until both of the writer's states
		// have been read.
		sawHit, sawMiss := false, false
		for round := 0; round < 400 || !sawHit || !sawMiss; round++ {
			if round == 1_000_000 {
				t.Fatalf("%s: the toggled key never changed under the reader (hit=%v miss=%v)", st.name, sawHit, sawMiss)
			}
			for _, batch := range [][]uint64{ascending, mixed} {
				vals, found := st.batch(batch)
				first := -1
				for i, k := range batch {
					if k != hot {
						if !found[i] || vals[i] != k {
							t.Fatalf("%s: quiet key %d = (%d,%v)", st.name, k, vals[i], found[i])
						}
						continue
					}
					if first < 0 {
						first = i
						sawHit, sawMiss = sawHit || found[i], sawMiss || !found[i]
					}
					if found[i] != found[first] || vals[i] != vals[first] {
						t.Fatalf("%s round %d: key %d read as (%d,%v) at [%d] and (%d,%v) at [%d] within one call",
							st.name, round, hot, vals[first], found[first], first, vals[i], found[i], i)
					}
				}
			}
		}
		close(stop)
		wg.Wait()
	}
}

// TestShardedLookupBatchAllocs: on a flushed store an unsorted batch is
// routed key by key against one cached snapshot per shard, so a call
// allocates its two result slices and the per-shard snapshot slice and
// nothing per shard or per key (no permutation, no sub-batch copies, no
// per-shard result slices).
func TestShardedLookupBatchAllocs(t *testing.T) {
	const n = 40_000
	s, d := shardedBatchStores(t, n, 4)
	defer s.Close()
	defer d.Close()
	s.SetAsyncFlush(false)
	d.SetAsyncFlush(false)
	rng := rand.New(rand.NewSource(3))
	probes := make([]uint64, 256)
	for i := range probes {
		probes[i] = uint64(rng.Intn(2 * n))
	}
	ascending := append([]uint64(nil), probes...)
	sortU64(ascending)
	for name, batch := range map[string]func([]uint64) ([]uint64, []bool){"Sharded": s.LookupBatch, "DurableSharded": d.LookupBatch} {
		if allocs := testing.AllocsPerRun(50, func() { batch(probes) }); allocs > 3 {
			t.Fatalf("%s: a 256-key unsorted batch over 4 shards allocates %.0f times, want 3", name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { batch(ascending) }); allocs > 3 {
			t.Fatalf("%s: a 256-key ascending batch over 4 shards allocates %.0f times, want 3", name, allocs)
		}
	}
}
