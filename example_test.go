package fitingtree_test

import (
	"bytes"
	"fmt"

	"fitingtree"
)

// ExampleOptimistic shows the latch-free facade's full write lifecycle:
// lookups against the published state, inserts into the delta, and the
// copy-on-write flush that folds the delta into the base tree.
func ExampleOptimistic() {
	keys := []uint64{10, 20, 30, 40, 50}
	vals := []string{"a", "b", "c", "d", "e"}
	tr, _ := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 16, BufferSize: 4})

	idx := fitingtree.NewOptimistic(tr)

	v, ok := idx.Lookup(30) // latch-free read of the published state
	fmt.Println(v, ok)

	idx.Insert(35, "f") // pending in the delta, already visible
	fmt.Println(idx.Lookup(35))

	idx.Insert(45, "g")
	idx.SyncFlush() // fold the delta into the tree: a page-granular COW merge
	fmt.Println(idx.Lookup(45))
	fmt.Println(idx.Len())
	idx.Close() // drain: on multi-core runtimes flushes run in the background
	// Output:
	// c true
	// f true
	// g true
	// 7
}

// ExampleOptimistic_Delete demonstrates the documented duplicate
// semantics: pending inserts are consumed first, then tombstones remove
// the first matches in scan order.
func ExampleOptimistic_Delete() {
	keys := []uint64{7, 7, 7}
	vals := []string{"first", "second", "third"}
	tr, _ := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 16})

	idx := fitingtree.NewOptimistic(tr)
	idx.Insert(7, "pending")

	idx.Delete(7) // consumes the pending insert
	idx.Delete(7) // tombstones "first", the first match in scan order
	idx.Each(7, func(v string) bool {
		fmt.Println(v)
		return true
	})
	// Output:
	// second
	// third
}

// ExampleNewSharded splits a tree into range shards with boundaries drawn
// from the data's distribution; writes to different shards take different
// locks, reads stay latch-free, and range scans stitch across shards in
// key order.
func ExampleNewSharded() {
	keys := make([]uint64, 1000)
	vals := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 10)
		vals[i] = uint64(i)
	}
	tr, _ := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 16, BufferSize: 4})

	idx, _ := fitingtree.NewSharded(tr, 4)
	fmt.Println(idx.Shards())

	idx.Insert(4995, 4995) // routes to the owning shard only
	v, ok := idx.Lookup(4995)
	fmt.Println(v, ok)

	// A range crossing shard boundaries is stitched in key order.
	n := 0
	idx.AscendRange(0, 9990, func(k, v uint64) bool { n++; return true })
	fmt.Println(n)
	// Output:
	// 4
	// 4995 true
	// 1001
}

// ExampleEncodeOptimistic snapshots a facade without blocking its writers:
// the published state is immutable, so one atomic load is a consistent
// cut, pending delta writes included.
func ExampleEncodeOptimistic() {
	tr, _ := fitingtree.BulkLoad([]uint64{1, 2, 3}, []string{"x", "y", "z"},
		fitingtree.Options{Error: 16})
	idx := fitingtree.NewOptimistic(tr)
	idx.Insert(4, "w") // stays in the delta; still part of the snapshot

	var buf bytes.Buffer
	if err := fitingtree.EncodeOptimistic(idx, &buf); err != nil {
		panic(err)
	}
	back, err := fitingtree.Decode[uint64, string](&buf)
	if err != nil {
		panic(err)
	}
	restored := fitingtree.NewOptimistic(back)
	fmt.Println(restored.Len())
	fmt.Println(restored.Lookup(4))
	// Output:
	// 4
	// w true
}
