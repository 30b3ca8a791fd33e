package fitingtree

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
	"fitingtree/internal/workload"
	"fitingtree/keycodec"
)

// TestShardLoadMatchesBulkLoad pins the layout of a shard set built from a
// freshly bulk-loaded tree: through NewSharded and CreateDurableSharded
// alike, every shard's chunks — boundaries, page starts, slopes, error
// bounds, keys and values — are exactly what BulkLoad builds over that
// shard's key range. It is what keeps a sharded store's index size and its
// first checkpoint's bytes a function of the data and the fences alone.
func TestShardLoadMatchesBulkLoad(t *testing.T) {
	weblogs := workload.Weblogs(120_000, 5)
	codec := make([]string, len(weblogs))
	for i, k := range weblogs {
		codec[i] = keycodec.Uint64(k)
	}
	opts := Options{Error: 32}
	t.Run("weblogs", func(t *testing.T) { checkShardLoad(t, weblogs, opts) })
	t.Run("iot", func(t *testing.T) { checkShardLoad(t, workload.IoT(120_000, 6), opts) })
	// Runs of 90 equal keys against a segmentation bound of 32: pages start
	// inside runs and duplicates spill across page boundaries.
	t.Run("step", func(t *testing.T) { checkShardLoad(t, workload.Step(60_000, 90, 1000), opts) })
	t.Run("codec", func(t *testing.T) { checkShardLoad(t, codec, opts) })
	// Evenly spaced keys are one segment: no page start can balance the
	// shards, so the fences fall back to element quantiles inside the page.
	linear := make([]uint64, 50_000)
	for i := range linear {
		linear[i] = uint64(i) * 16
	}
	t.Run("linear", func(t *testing.T) { checkShardLoad(t, linear, opts) })
}

// checkShardLoad builds both sharded stores over keys at 2–5 shards and
// compares every shard tree with a bulk load of its range.
func checkShardLoad[K Key](t *testing.T, keys []K, opts Options) {
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	build := func() *Tree[K, int] {
		tr, err := BulkLoad(keys, vals, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for shards := 2; shards <= 5; shards++ {
		s, err := NewSharded(build(), shards)
		if err != nil {
			t.Fatal(err)
		}
		d, err := CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), build(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]*shardEngine[K, int]{"NewSharded": &s.shardEngine, "CreateDurableSharded": &d.shardEngine} {
			ss := e.set.Load()
			if len(ss.shards) != shards {
				t.Fatalf("%s at %d shards built %d", name, shards, len(ss.shards))
			}
			for i, sh := range ss.shards {
				lo, hi := 0, len(keys)
				if i > 0 {
					lo, _ = slices.BinarySearch(keys, ss.bounds[i-1])
				}
				if i < len(ss.bounds) {
					hi, _ = slices.BinarySearch(keys, ss.bounds[i])
				}
				want, err := BulkLoad(keys[lo:hi], vals[lo:hi], opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameChunks(sh.state.Load().tree, want); err != nil {
					t.Fatalf("%s, %d shards, shard %d [%d, %d): %v", name, shards, i, lo, hi, err)
				}
			}
		}
		s.Close()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameChunks reports the first difference between two trees' chunk
// sequences as a checkpoint sees them.
func sameChunks[K Key, V any](got, want *Tree[K, V]) error {
	if got.NumChunks() != want.NumChunks() {
		return fmt.Errorf("%d chunks, BulkLoad cuts %d", got.NumChunks(), want.NumChunks())
	}
	for ci := 0; ci < want.NumChunks(); ci++ {
		g, w := got.ChunkSnap(ci).Pages, want.ChunkSnap(ci).Pages
		if len(g) != len(w) {
			return fmt.Errorf("chunk %d holds %d pages, BulkLoad's %d", ci, len(g), len(w))
		}
		for pi := range w {
			if !reflect.DeepEqual(g[pi], w[pi]) {
				return fmt.Errorf("chunk %d page %d: start %v slope %v count %d werr %d, BulkLoad's start %v slope %v count %d werr %d",
					ci, pi, g[pi].Seg.Start, g[pi].Seg.Slope, len(g[pi].Keys), g[pi].WErr,
					w[pi].Seg.Start, w[pi].Seg.Slope, len(w[pi].Keys), w[pi].WErr)
			}
		}
	}
	return nil
}
