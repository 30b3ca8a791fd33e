package fitingtree

import (
	"math"
	"slices"
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// FuzzStoredCut fuzzes the one reader and loader of a committed store
// (readCut, loadCheckpoint) through both of their callers that read bytes
// they did not write, Scrub and OpenDurableSharded. Each input is committed,
// with valid checksums, as the manifest of a fresh copy of a small 3-shard
// store whose logs are empty, so the chunk heads, fences, options and
// cursors it names are whatever the fuzzer chose. Neither caller may
// panic, and a cut Scrub passes must be one recovery serves correctly: the
// store opens, holds Scrub's element count, and Lookup finds every key
// AscendRange yields. The seeds are the store's own manifest, one with
// the first two shards' chunk lists swapped, and one listing shard 0's
// chunks for shard 1 too.
func FuzzStoredCut(f *testing.F) {
	keys := make([]int, 3000)
	for i := range keys {
		keys[i] = i * 7
	}
	tree, err := BulkLoad(keys, keys, Options{Error: 16})
	if err != nil {
		f.Fatal(err)
	}
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, tree, 3)
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	sup, m, live := liveCut(f, dev)
	if len(m.Shards) != 3 {
		f.Fatalf("the base store has %d shards, want 3", len(m.Shards))
	}
	f.Add(core.EncodeShardManifest(m))
	orig := m.Shards
	m.Shards = slices.Clone(orig)
	m.Shards[0].Chunks, m.Shards[1].Chunks = orig[1].Chunks, orig[0].Chunks
	f.Add(core.EncodeShardManifest(m))
	m.Shards[0].Chunks, m.Shards[1].Chunks = orig[0].Chunks, orig[0].Chunks
	f.Add(core.EncodeShardManifest(m))

	f.Fuzz(func(t *testing.T, blob []byte) {
		fsys, disk := wal.NewMemFS(), pager.NewDisk()
		for _, name := range mem.Names() {
			fsys.SetBytes(name, mem.Bytes(name))
		}
		page := make([]byte, pager.PageSize)
		for id := pager.PageID(0); int(id) < dev.NumPages(); id++ {
			disk.Allocate()
			if err := dev.Read(id, page); err != nil {
				t.Fatal(err)
			}
			if err := disk.Write(id, page); err != nil {
				t.Fatal(err)
			}
		}
		recommit(t, disk, sup, live, blob)

		rep, serr := Scrub[int, int](disk)
		rec, err := OpenDurableSharded[int, int](fsys, disk, Options{}, 3)
		if err == nil {
			defer rec.Close()
		}
		if serr != nil {
			return
		}
		if err != nil {
			t.Fatalf("scrub passed a cut recovery rejects: %v", err)
		}
		if rec.Len() != rep.Elements {
			t.Fatalf("recovered %d elements, scrub counted %d", rec.Len(), rep.Elements)
		}
		var seen []int
		rec.AscendRange(math.MinInt, math.MaxInt, func(k, _ int) bool {
			seen = append(seen, k)
			return true
		})
		for _, k := range seen {
			if _, ok := rec.Lookup(k); !ok {
				t.Fatalf("AscendRange yields key %d that Lookup misses", k)
			}
		}
	})
}
