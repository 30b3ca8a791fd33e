package fitingtree_test

import (
	"math/rand"
	"testing"

	"fitingtree"
	"fitingtree/internal/bench"
)

// TestLookupBatchMatchesLookup checks LookupBatch against per-key Lookup
// over duplicate-heavy data, both router kinds, and post-churn trees whose
// page chains have buffered inserts, tombstoned pages and duplicate runs.
func TestLookupBatchMatchesLookup(t *testing.T) {
	for _, router := range []fitingtree.RouterKind{fitingtree.RouterBTree, fitingtree.RouterImplicit} {
		rng := rand.New(rand.NewSource(int64(router) + 5))
		keys := make([]uint64, 5000)
		for i := range keys {
			keys[i] = uint64(rng.Intn(1500) * 3) // dense duplicates
		}
		sortU64(keys)
		tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...),
			fitingtree.Options{Error: 24, BufferSize: 8, Router: router})
		if err != nil {
			t.Fatal(err)
		}

		checkBatch := func(probes []uint64) {
			t.Helper()
			vals, found := tr.LookupBatch(probes)
			if len(vals) != len(probes) || len(found) != len(probes) {
				t.Fatalf("router=%d: result lengths %d/%d for %d probes", router, len(vals), len(found), len(probes))
			}
			for i, k := range probes {
				wv, wok := tr.Lookup(k)
				if found[i] != wok || (wok && vals[i] != wv) {
					t.Fatalf("router=%d: batch[%d] key %d = (%d,%v), Lookup = (%d,%v)",
						router, i, k, vals[i], found[i], wv, wok)
				}
			}
		}

		// Mixed hits and misses, unsorted, with repeats.
		probes := make([]uint64, 700)
		for i := range probes {
			probes[i] = uint64(rng.Intn(4800))
		}
		checkBatch(probes)
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
}
