package fitingtree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// TestLegacyStoreWithLooserPagesOpens: a store whose chunks were cut under
// a looser error bound than its manifest records — what the retired
// per-region tuner could leave behind, made here by lowering the recorded
// Error from 128 to 32 — scrubs clean and opens with every key, each page
// searched under a window widened by the excess. Writes touching every page
// then rebuild them all at the store's bound, and the next checkpoint and
// reopen carry no widening.
func TestLegacyStoreWithLooserPagesOpens(t *testing.T) {
	const rows, shards = 6000, 3
	rng := rand.New(rand.NewSource(5))
	keys := make([]int, rows)
	for i, k := 0, 0; i < rows; i++ {
		// Bursty gaps: a few pages at Error 128, several times as many at 32.
		k += 2
		if rng.Intn(10) == 0 {
			k += 200
		}
		keys[i] = k
	}
	tree, err := BulkLoad(keys, keys, Options{Error: 128})
	if err != nil {
		t.Fatal(err)
	}
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, tree, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Option word 0, past the u32 magic and the u64 generation, is Error.
	sup, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no committed superblock: %v", err)
	}
	blob, err := pager.NewStore(dev).Get(sup.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(blob[12:], 32)
	head, err := pager.NewStore(dev).Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := pager.WriteSuper(dev, pager.Super{Epoch: sup.Epoch + 1, Manifest: head}); err != nil {
		t.Fatal(err)
	}

	scrub := func(want int) {
		t.Helper()
		if rep, err := Scrub[int, int](dev); err != nil || rep.Elements != want {
			t.Fatalf("scrub: %d elements, %v; want %d", rep.Elements, err, want)
		}
	}
	open := func() *DurableSharded[int, int] {
		t.Helper()
		d, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAutoCheckpoint(false)
		return d
	}
	widening := func(d *DurableSharded[int, int]) (pages, deletes int) {
		for _, tr := range shardTrees(d) {
			st := tr.Stats()
			pages, deletes = pages+st.Pages, deletes+st.Deletes
		}
		return pages, deletes
	}
	scrub(rows)
	d = open()
	if e := shardTrees(d)[0].Options().Error; e != 32 {
		t.Fatalf("opened under Error %d, want the manifest's 32", e)
	}
	pages, deletes := widening(d)
	if deletes != pages*(128-32) {
		t.Fatalf("%d pages carry %d of widening, want %d", pages, deletes, pages*(128-32))
	}
	for _, k := range keys {
		if v, ok := d.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = (%d, %v) in the loosened store", k, v, ok)
		}
	}
	n := rows
	for i := 0; i < rows; i += 4 {
		if err := d.Insert(keys[i]+1, -i); err != nil {
			t.Fatal(err)
		}
		n++
		if i%16 == 8 {
			if ok, err := d.Delete(keys[i]); err != nil || !ok {
				t.Fatalf("Delete(%d) = %v, %v", keys[i], ok, err)
			}
			n--
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dump(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	scrub(n)
	d = open()
	defer d.Close()
	if got := dump(d); !slices.Equal(got, want) || len(got) != n {
		t.Fatalf("reopened with %d pairs, want %d", len(got), n)
	}
	after, left := widening(d)
	if left != 0 {
		t.Fatalf("%d pages still carry %d of widening after writes touched every page", after, left)
	}
	t.Logf("%d pages with %d of widening became %d pages with %d", pages, deletes, after, left)
}

// TestLegacyStoreIntentAndStaleLogsOpen: a directory an earlier build left
// behind at committed generation G — with that build's rebalance intent
// record and its write sibling, the logs of an uncommitted migration to
// G+1 and those of G-1, whose sweep never finished — opens at G with every
// acknowledged write and is left holding only generation G's logs. The
// stale logs carry real records: replaying either set would duplicate
// keys.
func TestLegacyStoreIntentAndStaleLogsOpen(t *testing.T) {
	const shards = 3
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	d := openStore(t, mem, dev, shards)
	var want [][2]int
	insert := func(from, to int) {
		for k := from; k < to; k += 3 {
			if err := d.Insert(k, -k); err != nil {
				t.Fatal(err)
			}
			want = append(want, [2]int{k, -k})
		}
	}
	logsOf := func(gen uint64) map[string][]byte {
		logs := make(map[string][]byte)
		for i := 0; i < shards; i++ {
			name := shardWALName(gen, i)
			logs[name] = mem.Bytes(name)
		}
		return logs
	}
	insert(0, 1800)
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	insert(1, 1800) // generation 1's log tails
	below := logsOf(1)
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	insert(2, 1800) // generation 2's acknowledged, never-checkpointed tails
	const gen = 2
	if g := d.Generation(); g != gen {
		t.Fatalf("store at generation %d, want %d", g, gen)
	}
	above := make(map[string][]byte)
	for i := 0; i < shards; i++ {
		above[shardWALName(gen+1, i)] = mem.Bytes(shardWALName(gen, i))
	}

	// The intent record as earlier builds wrote it: magic "FINT", source
	// epoch, the migration's generation, old and new fence lists (empty
	// here), CRC-32C.
	intent := binary.LittleEndian.AppendUint32(nil, 0x46494e54)
	intent = binary.LittleEndian.AppendUint64(intent, 9)
	intent = binary.LittleEndian.AppendUint64(intent, gen+1)
	intent = binary.LittleEndian.AppendUint32(intent, 0)
	intent = binary.LittleEndian.AppendUint32(intent, 0)
	intent = binary.LittleEndian.AppendUint32(intent, crc32.Checksum(intent, crc32.MakeTable(crc32.Castagnoli)))
	mem.SetBytes("rebalance.intent", intent)
	mem.SetBytes("rebalance.intent.tmp", intent[:len(intent)/2])
	for _, logs := range []map[string][]byte{below, above} {
		for name, data := range logs {
			if data == nil {
				t.Fatalf("log %s to plant is empty", name)
			}
			mem.SetBytes(name, data)
		}
	}
	mem.Crash()

	rec := openStore(t, mem, dev, shards)
	defer rec.Close()
	sort.Slice(want, func(a, b int) bool { return want[a][0] < want[b][0] })
	if got := dump(rec); !pairsEqual(got, want) {
		t.Fatalf("reopened with %d pairs, want %d", len(got), len(want))
	}
	if g := rec.Generation(); g != gen {
		t.Fatalf("reopened at generation %d, want %d", g, gen)
	}
	live := fmt.Sprintf("wal-%d-", gen)
	for _, name := range mem.Names() {
		if !strings.HasPrefix(name, live) {
			t.Fatalf("%q survived the open", name)
		}
	}
}
