package fitingtree_test

import (
	"math/rand"
	"sync"
	"testing"

	"fitingtree"
	"fitingtree/internal/bench"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// TestLookupBatchMatchesLookup checks LookupBatch against per-key Lookup
// over duplicate-heavy data, both window searches, and post-churn trees whose
// page chains have buffered inserts, tombstoned pages and duplicate runs.
func TestLookupBatchMatchesLookup(t *testing.T) {
	for _, rk := range searchKinds {
		search := rk.search
		rng := rand.New(rand.NewSource(int64(search) + 5))
		keys := make([]uint64, 5000)
		for i := range keys {
			keys[i] = uint64(rng.Intn(1500) * 3) // dense duplicates
		}
		sortU64(keys)
		tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...),
			fitingtree.Options{Error: 24, BufferSize: 8, Search: search})
		if err != nil {
			t.Fatal(err)
		}

		checkBatch := func(probes []uint64) {
			t.Helper()
			vals, found := tr.LookupBatch(probes)
			if len(vals) != len(probes) || len(found) != len(probes) {
				t.Fatalf("search=%d: result lengths %d/%d for %d probes", search, len(vals), len(found), len(probes))
			}
			for i, k := range probes {
				wv, wok := tr.Lookup(k)
				if found[i] != wok || (wok && vals[i] != wv) {
					t.Fatalf("search=%d: batch[%d] key %d = (%d,%v), Lookup = (%d,%v)",
						search, i, k, vals[i], found[i], wv, wok)
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

		// Sparse probes force the chain walk to give up and re-descend.
		sparse := make([]uint64, 64)
		for i := range sparse {
			sparse[i] = uint64(i * 997)
		}
		checkBatch(sparse)
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
	for name, batch := range map[string]func([]uint64) ([]uint64, []bool){"Sharded": s.LookupBatch, "DurableSharded": d.LookupBatch} {
		if allocs := testing.AllocsPerRun(50, func() { batch(probes) }); allocs > 3 {
			t.Fatalf("%s: a 256-key unsorted batch over 4 shards allocates %.0f times, want 3", name, allocs)
		}
	}
}
