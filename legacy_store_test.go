package fitingtree

import (
	"bytes"
	"encoding/gob"
	"errors"
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
