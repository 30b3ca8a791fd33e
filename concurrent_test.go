package fitingtree_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fitingtree"
	"fitingtree/internal/bench"
)

// readerWriterIndex is the surface shared by the two concurrency facades,
// so the stress test exercises both through one driver.
type readerWriterIndex interface {
	Lookup(k uint64) (uint64, bool)
	Contains(k uint64) bool
	Each(k uint64, fn func(v uint64) bool)
	AscendRange(lo, hi uint64, fn func(k, v uint64) bool)
	LookupBatch(keys []uint64) ([]uint64, []bool)
	Insert(k uint64, v uint64)
	Delete(k uint64) bool
	Len() int
}

// stressIndex hammers idx with reader goroutines against one concurrent
// writer. Values always equal keys, so readers can validate every value
// they observe regardless of interleaving; run under -race this is the
// facade's data-race certification.
func stressIndex(t *testing.T, idx readerWriterIndex, readers int) {
	t.Helper()
	const (
		keySpace  = 1 << 14
		writerOps = 4000
	)
	var done atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]uint64, 32)
			for !done.Load() {
				switch rng.Intn(4) {
				case 0:
					k := uint64(rng.Intn(keySpace))
					if v, ok := idx.Lookup(k); ok && v != k {
						t.Errorf("Lookup(%d) returned %d", k, v)
						return
					}
				case 1:
					k := uint64(rng.Intn(keySpace))
					idx.Each(k, func(v uint64) bool {
						if v != k {
							t.Errorf("Each(%d) yielded %d", k, v)
							return false
						}
						return true
					})
				case 2:
					lo := uint64(rng.Intn(keySpace))
					hi := lo + uint64(rng.Intn(256))
					prev := uint64(0)
					first := true
					idx.AscendRange(lo, hi, func(k, v uint64) bool {
						if k < lo || k > hi || v != k || (!first && k < prev) {
							t.Errorf("AscendRange(%d,%d) yielded (%d,%d) after %d", lo, hi, k, v, prev)
							return false
						}
						prev, first = k, false
						return true
					})
				case 3:
					for i := range batch {
						batch[i] = uint64(rng.Intn(keySpace))
					}
					vals, found := idx.LookupBatch(batch)
					for i := range batch {
						if found[i] && vals[i] != batch[i] {
							t.Errorf("LookupBatch[%d]=%d for key %d", i, vals[i], batch[i])
							return
						}
					}
				}
			}
		}(int64(r + 1))
	}

	// Single writer: random inserts and deletes across the key space.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < writerOps; i++ {
		k := uint64(rng.Intn(keySpace))
		if rng.Intn(3) == 0 {
			idx.Delete(k)
		} else {
			idx.Insert(k, k)
		}
	}
	done.Store(true)
	wg.Wait()

	if n := idx.Len(); n < 0 {
		t.Fatalf("Len = %d", n)
	}
}

func stressKeys() ([]uint64, []uint64) {
	keys := make([]uint64, 1<<13)
	for i := range keys {
		keys[i] = uint64(i * 2)
	}
	return keys, append([]uint64(nil), keys...)
}

func TestConcurrentStress(t *testing.T) {
	keys, vals := stressKeys()
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 64, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, bench.NewConcurrent(tr), 4)
}

func TestOptimisticStress(t *testing.T) {
	keys, vals := stressKeys()
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 64, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := fitingtree.NewOptimistic(tr)
	o.SetFlushEvery(256) // several flushes over the writer's op stream
	stressIndex(t, o, 4)
}
