package fitingtree

import (
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// TestScrubSharded verifies the integrity auditor against a healthy
// sharded store: every chunk accounted, element totals exact.
func TestScrubSharded(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	keys := make([]int, 3000)
	vals := make([]int, len(keys))
	for i := range keys {
		keys[i], vals[i] = i*2, i
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(mem, dev, tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for i := 0; i < 100; i++ {
		if err := d.Insert(i*2+1, -i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub[int, int](dev)
	if err != nil {
		t.Fatalf("scrub of a healthy store: %v", err)
	}
	if rep.Shards != 3 {
		t.Fatalf("scrub counted %d shards, want 3", rep.Shards)
	}
	if rep.Elements != 3100 {
		t.Fatalf("scrub counted %d elements, want 3100", rep.Elements)
	}
	if len(rep.Chunks) == 0 || rep.LivePages <= rep.ManifestPages {
		t.Fatalf("scrub accounting: %d chunks, %d live pages (%d manifest)",
			len(rep.Chunks), rep.LivePages, rep.ManifestPages)
	}
	if !rep.Supers[0].Valid && !rep.Supers[1].Valid {
		t.Fatal("scrub found no valid superblock on a committed store")
	}

	// Corrupt one live chunk page: the scrub must fail, not load garbage.
	sup, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no superblock: %v", err)
	}
	m, _, err := loadShardManifest(pager.NewStore(dev), sup.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	victim := pager.PageID(m.Shards[1].Chunks[0])
	buf := make([]byte, pager.PageSize)
	if err := dev.Read(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[pager.PageSize/2] ^= 0xFF
	if err := dev.Write(victim, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Scrub[int, int](dev); err == nil {
		t.Fatal("scrub passed a store with a corrupted chunk page")
	}
}

// TestScrubSingleTree verifies the auditor against a one-shard store.
func TestScrubSingleTree(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for i := 0; i < 500; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub[int, int](dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 1 || rep.Generation != 0 {
		t.Fatalf("scrub counted %d shards at generation %d, want 1 at 0", rep.Shards, rep.Generation)
	}
	if rep.Elements != 500 {
		t.Fatalf("scrub counted %d elements, want 500", rep.Elements)
	}
}

// TestScrubChunkElementsCountBuffers: a store created from a tree whose
// pages still hold buffered inserts carries those pairs in its chunks, and
// the per-chunk element counts add up to the report's total.
func TestScrubChunkElementsCountBuffers(t *testing.T) {
	keys := make([]int, 5160)
	for i := range keys {
		keys[i] = i * 4
	}
	tree, err := BulkLoad(keys, keys, Options{Error: 64, BufferSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tree.Insert(i*500+1, -i)
	}
	if st := tree.Stats(); st.Buffered != 40 {
		t.Fatalf("the fixture buffers %d inserts, want 40", st.Buffered)
	}
	dev := pager.NewDisk()
	d, err := CreateDurableSharded(wal.NewMemFS(), dev, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep, err := Scrub[int, int](dev)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range rep.Chunks {
		sum += c.Elements
	}
	if rep.Elements != 5200 || sum != rep.Elements {
		t.Fatalf("chunks carry %d elements, the report %d, want 5200", sum, rep.Elements)
	}
}

// TestScrubEmptyDevice verifies the auditor reports a store with no
// committed checkpoint as an error, with both slots marked invalid.
func TestScrubEmptyDevice(t *testing.T) {
	rep, err := Scrub[int, int](pager.NewDisk())
	if err == nil {
		t.Fatal("scrub of an empty device reported success")
	}
	if rep.Supers[0].Valid || rep.Supers[1].Valid {
		t.Fatalf("empty device has a valid superblock: %+v", rep.Supers)
	}
}
