package fitingtree

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
	"fitingtree/internal/workload"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRecoveredStoreHoldsItsDataOnce reopens a sharded store whose
// checkpoint was cut several times and whose WAL tail touches most pages,
// folds the tail, and weighs the reopened facade: the heap it holds must
// be about its data (16 bytes per element), not a second copy of the
// checkpoint pinned by the decode, the assembly, the open's wiring around
// them or the fold that carried decoded pages over.
func TestRecoveredStoreHoldsItsDataOnce(t *testing.T) {
	const n = 1_000_000
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	keys := workload.Weblogs(n, 21)
	tree, err := BulkLoad(keys, keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(mem, dev, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false) // nothing of the first facade runs on behind the readings
	d.SetRebalanceFactor(math.Inf(1))
	rng := rand.New(rand.NewSource(21))
	write := func(count int) {
		for i := 0; i < count; i++ {
			k := keys[rng.Intn(n)] + 1 + uint64(rng.Intn(5))
			if err := d.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for cut := 0; cut < 3; cut++ {
		write(2000)
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	write(4 * tree.NumPages()) // the tail: about four adds per page
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash() // the first facade is abandoned, as by a crash

	rec, err := OpenDurableSharded[uint64, uint64](mem, dev, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Stats().WALRecords < 4000 {
		t.Fatalf("the reopened store replayed %d records: the scenario proves nothing", rec.Stats().WALRecords)
	}
	// The open left each tail a frozen layer: fold it, then cut, so the
	// Close below writes nothing and the device weighs the same in both
	// readings.
	rec.SyncFlush()
	if _, err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	with := liveHeap()
	size := rec.Len()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	held, data := with-liveHeap(), uint64(size)*16
	runtime.KeepAlive(mem) // the store weighs in both readings
	runtime.KeepAlive(dev)
	t.Logf("%d elements: %.1f bytes of heap per element", size, float64(held)/float64(size))
	if held > data*3/2 {
		t.Fatalf("a reopened store of %d elements holds %d bytes of heap, %.2fx its data", size, held, float64(held)/float64(data))
	}
}
