package fitingtree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// TestLegacyStoreRejected pins the format break: a store written by the
// retired single-tree stack — a gob checkpoint root behind the superblock,
// and/or a wal.log — must be refused by name and left byte-identical. It
// must never be loaded, truncated, or silently shadowed by an empty store.
func TestLegacyStoreRejected(t *testing.T) {
	// The retired manifest: tree options plus chunk blob heads, gob-encoded.
	type manifest struct {
		Options Options
		Chunks  []pager.PageID
	}
	var root bytes.Buffer
	if err := gob.NewEncoder(&root).Encode(manifest{Options: Options{Error: 32}}); err != nil {
		t.Fatal(err)
	}
	gobRoot := func(t *testing.T, dev pager.Device) {
		store := pager.NewStore(dev)
		store.RebuildFree(nil)
		head, err := store.Put(root.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := pager.WriteSuper(dev, pager.Super{Epoch: 1, Manifest: head, ReplayFrom: 7}); err != nil {
			t.Fatal(err)
		}
	}
	// The retired log: real framed records under the old file name.
	legacyLog := func(t *testing.T, mem *wal.MemFS) {
		log, _, _, err := wal.Open(mem, legacyLogName)
		if err != nil {
			t.Fatal(err)
		}
		codec := newOpCodec[int, int]()
		for i := 0; i < 10; i++ {
			payload, err := codec.encodeOp(nil, walOpInsert, i, i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name      string
		root, log bool
	}{
		{"gob-root", true, false},
		{"bare-wal-log", false, true},
		{"gob-root-and-wal-log", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := wal.NewMemFS()
			dev := pager.NewDisk()
			if c.root {
				gobRoot(t, dev)
			}
			if c.log {
				legacyLog(t, mem)
			}
			wantPages := snapshotPages(t, dev)
			wantLog := mem.Bytes(legacyLogName)
			wantNames := mem.Names()

			for _, shards := range []int{1, 3} {
				d, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
				if !errors.Is(err, errLegacyStore) {
					if d != nil {
						d.Close()
					}
					t.Fatalf("open(shards=%d) of a legacy store = %v, want the legacy-format error", shards, err)
				}
			}
			if c.root {
				if _, err := Scrub[int, int](dev); !errors.Is(err, errLegacyStore) {
					t.Fatalf("scrub of a legacy store = %v, want the legacy-format error", err)
				}
			}
			if got := snapshotPages(t, dev); !bytes.Equal(got, wantPages) {
				t.Fatal("rejected open modified the page device")
			}
			if got := mem.Bytes(legacyLogName); !bytes.Equal(got, wantLog) {
				t.Fatal("rejected open modified wal.log")
			}
			if got := mem.Names(); len(got) != len(wantNames) {
				t.Fatalf("rejected open changed the file set: %v -> %v", wantNames, got)
			}
		})
	}
}

// snapshotPages returns the device's full content.
func snapshotPages(t *testing.T, dev pager.Device) []byte {
	t.Helper()
	var all []byte
	buf := make([]byte, pager.PageSize)
	for id := 0; id < dev.NumPages(); id++ {
		if err := dev.Read(pager.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		all = append(all, buf...)
	}
	return all
}

// TestStoreWithRetiredOptionsOpens is the other side of the format
// contract: a store whose manifest carries the retired Fanout, FillFactor,
// Search and Router options (hand-encoded into the option block's reserved
// words, what a build with `Fanout: 32, FillFactor: 0.5, Search: 2,
// Router: 1` wrote) is not a legacy store. It scrubs clean, opens with every row, takes writes
// and checkpoints — and the checkpoint writes those words back as zero.
func TestStoreWithRetiredOptionsOpens(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	open := func() *DurableSharded[int, int] {
		t.Helper()
		d, err := OpenDurableSharded[int, int](mem, dev, Options{Error: 32}, 3)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAutoCheckpoint(false)
		return d
	}
	checkpointAndClose := func(d *DurableSharded[int, int]) {
		t.Helper()
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 4000
	d := open()
	for i := 0; i < rows; i++ {
		if err := d.Insert(i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	checkpointAndClose(d)

	// The option block follows the u32 magic and the u64 generation; its
	// words 2 to 5 are the retired ones.
	retired := map[int]uint64{12 + 2*8: 32, 12 + 3*8: math.Float64bits(0.5), 12 + 4*8: 2, 12 + 5*8: 1}
	manifest := func() []byte {
		t.Helper()
		sup, ok, err := pager.ReadSuper(dev)
		if err != nil || !ok {
			t.Fatalf("no committed superblock: %v", err)
		}
		blob, err := pager.NewStore(dev).Get(sup.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	blob := manifest()
	for at, w := range retired {
		binary.LittleEndian.PutUint64(blob[at:], w)
	}
	head, err := pager.NewStore(dev).Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	sup, _, _ := pager.ReadSuper(dev)
	if err := pager.WriteSuper(dev, pager.Super{Epoch: sup.Epoch + 1, Manifest: head}); err != nil {
		t.Fatal(err)
	}

	if rep, err := Scrub[int, int](dev); err != nil || rep.Elements != rows {
		t.Fatalf("scrub of a store with the retired options set: %d elements, %v", rep.Elements, err)
	}
	d = open()
	if d.Len() != rows {
		t.Fatalf("opened with %d rows, want %d", d.Len(), rows)
	}
	for i := 0; i < rows; i += 37 {
		if v, ok := d.Lookup(i * 3); !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d, %v) after opening the old store", i*3, v, ok)
		}
	}
	for i := 0; i < 500; i++ {
		if err := d.Insert(i*3+1, -i); err != nil {
			t.Fatal(err)
		}
	}
	checkpointAndClose(d)
	for at := range retired {
		if w := binary.LittleEndian.Uint64(manifest()[at:]); w != 0 {
			t.Fatalf("checkpoint wrote %#x into the reserved option word at offset %d", w, at)
		}
	}
	if rep, err := Scrub[int, int](dev); err != nil || rep.Elements != rows+500 {
		t.Fatalf("scrub after the checkpoint: %d elements, %v", rep.Elements, err)
	}
	d = open()
	if d.Len() != rows+500 {
		t.Fatalf("reopened with %d rows, want %d", d.Len(), rows+500)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
