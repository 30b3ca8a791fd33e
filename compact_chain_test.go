package fitingtree_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fitingtree"
	"fitingtree/internal/workload"
)

// writer is what the chain-compactness test drives: every facade that
// folds through the publishing fold paths.
type writer interface {
	Insert(k, v uint64)
	Delete(k uint64) bool
	SyncFlush()
	Stats() fitingtree.Stats
	AscendRange(lo, hi uint64, fn func(k, v uint64) bool)
}

// TestWrittenChainStaysCompact pins the fold's compaction (core.Recone) end
// to end: an ingest-shaped stream — a random two thirds of a Weblogs
// universe bulk-loaded, then 90/10 inserts of the held-out keys and deletes
// of present ones — through Optimistic (async and inline) and a 4-shard
// Sharded leaves at most 1.10× the pages a BulkLoad of the same content
// makes. Without it the refits' splits leave ~1.3×.
func TestWrittenChainStaysCompact(t *testing.T) {
	universe := slices.Compact(workload.Weblogs(900_000, 5))
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	cut := len(universe) * 2 / 3
	bulk, held := slices.Clone(universe[:cut]), universe[cut:]
	slices.Sort(bulk)
	type op struct {
		k   uint64
		del bool
	}
	present := slices.Clone(bulk)
	var ops []op
	for len(held) > 0 && len(ops) < len(bulk)/6 {
		if rng.Intn(10) == 0 {
			i := rng.Intn(len(present))
			ops = append(ops, op{present[i], true})
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			continue
		}
		ops = append(ops, op{held[0], false})
		present, held = append(present, held[0]), held[1:]
	}

	for _, c := range []struct {
		name string
		make func(*fitingtree.Tree[uint64, uint64]) (writer, func())
	}{
		{"optimistic-async", func(tr *fitingtree.Tree[uint64, uint64]) (writer, func()) {
			o := fitingtree.NewOptimistic(tr)
			o.SetAsyncFlush(true)
			return o, o.Close
		}},
		{"optimistic-inline", func(tr *fitingtree.Tree[uint64, uint64]) (writer, func()) {
			o := fitingtree.NewOptimistic(tr)
			o.SetAsyncFlush(false)
			return o, o.Close
		}},
		{"sharded-4", func(tr *fitingtree.Tree[uint64, uint64]) (writer, func()) {
			s, err := fitingtree.NewSharded(tr, 4)
			if err != nil {
				t.Fatal(err)
			}
			return s, s.Close
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := fitingtree.BulkLoad(bulk, bulk, fitingtree.Options{})
			if err != nil {
				t.Fatal(err)
			}
			w, closeFn := c.make(tr)
			defer closeFn()
			for _, o := range ops {
				if o.del {
					if !w.Delete(o.k) {
						t.Fatalf("Delete(%d) found nothing", o.k)
					}
				} else {
					w.Insert(o.k, o.k)
				}
			}
			w.SyncFlush()
			var keys []uint64
			w.AscendRange(0, ^uint64(0), func(k, v uint64) bool {
				if k != v {
					t.Fatalf("key %d holds %d", k, v)
				}
				keys = append(keys, k)
				return true
			})
			if len(keys) != len(present) {
				t.Fatalf("%d elements after the stream, want %d", len(keys), len(present))
			}
			fresh, err := fitingtree.BulkLoad(keys, keys, fitingtree.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, want := w.Stats().Pages, fresh.NumPages()
			t.Logf("%d pages after %d writes, BulkLoad makes %d (%.3f×)", got, len(ops), want, float64(got)/float64(want))
			if float64(got) > 1.10*float64(want) {
				t.Fatal(fmt.Sprintf("%d pages, %.3f× the %d of a BulkLoad of the same content", got, float64(got)/float64(want), want))
			}
		})
	}
}
