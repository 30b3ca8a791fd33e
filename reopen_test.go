package fitingtree

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// TestReplayTailAllocatesNoLayerArrays replays a 30 k-record tail — 27 k
// inserts and 3 k deletes of keys the tail never inserted, all distinct —
// and counts its allocations with testing.AllocsPerRun: the decoded
// record array, the op list (sized once, from the distinct keys), one
// adds slice per insert, the layer's delta nodes (leaves and inner nodes
// of order 16) and its header, filter, accessor and two level arrays.
// Nothing else: no key or entry array of the layer's length, and no
// regrown array.
func TestReplayTailAllocatesNoLayerArrays(t *testing.T) {
	const n, inserts = 30_000, 27_000
	codec := newOpCodec[uint64, uint64]()
	rng := rand.New(rand.NewSource(11))
	seen := map[uint64]bool{}
	records := make([]wal.Record, 0, n)
	for lsn := uint64(0); lsn < n; lsn++ {
		k := rng.Uint64() >> 1
		for seen[k] {
			k = rng.Uint64() >> 1
		}
		seen[k] = true
		op := walOpInsert
		if lsn >= inserts {
			op = walOpDelete
		}
		p, err := codec.encodeOp(nil, op, k, k)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, wal.Record{LSN: lsn, Payload: p})
	}
	nodes := 0
	for level := n; level > 1; {
		level = (level + 15) / 16
		nodes += level
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := replayTail(codec, records, 0); err != nil {
			t.Fatal(err)
		}
	})
	if want := 2 + inserts + nodes + 5; allocs > float64(want) {
		t.Fatalf("replaying %d records made %v allocations, want <= %d", n, allocs, want)
	}
}

// fileReads returns the read system calls the calling thread has made,
// from /proc/thread-self/io; ok is false where the file does not exist.
func fileReads() (n int64, ok bool) {
	raw, err := os.ReadFile("/proc/thread-self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, found := strings.CutPrefix(line, "syscr: "); found {
			n, err = strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// pageTrace passes a device through, recording the page of every Read.
type pageTrace struct {
	pager.Device
	ids []pager.PageID
}

func (p *pageTrace) Read(id pager.PageID, buf []byte) error {
	p.ids = append(p.ids, id)
	return p.Device.Read(id, buf)
}

// TestReopenReadsPageRuns reopens a store on a real directory — DirFS and
// a FileDisk, 240 k keys in two shards, and a WAL tail of inserts and
// deletes past the cut — from a copy of its synced files, and checks that
// it opens with exactly the content the store held. Where
// /proc/thread-self/io counts a thread's read calls, it also checks the
// reopen's file reads, made on the opening goroutine, locked to its thread:
// a Read of the page after the previous one fills a window of runPages (64)
// pages, so N page Reads with J others cost at most ⌈N/64⌉ + J file reads,
// plus two per log for its one sized read and the end-of-file read; and
// the store's pages are read in near runs (J ≤ 8). Before the window the
// same reopen made one file read per page, and ~18 per log.
func TestReopenReadsPageRuns(t *testing.T) {
	const n, tail = 240_000, 6_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 4
	}
	tree, err := BulkLoad(keys, keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := t.TempDir(), t.TempDir()
	fsys, err := wal.NewDirFS(src)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := pager.OpenFileDisk(filepath.Join(src, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded[uint64, uint64](fsys, disk, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetSyncEvery(1)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < tail; i++ {
		k := uint64(rng.Intn(4*n)) | 1
		if i%5 == 4 {
			k = keys[rng.Intn(n)]
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := d.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, v uint64 }
	content := func(d *DurableSharded[uint64, uint64]) []kv {
		var all []kv
		d.AscendRange(0, math.MaxUint64, func(k, v uint64) bool {
			all = append(all, kv{k, v})
			return true
		})
		return all
	}
	want := content(d)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	logs := 0
	for _, e := range entries { // every file is synced: the copy is a crash image
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if e.Name() != "pages.db" {
			logs++
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	disk.Close()

	fsys2, err := wal.NewDirFS(dst)
	if err != nil {
		t.Fatal(err)
	}
	disk2, err := pager.OpenFileDisk(filepath.Join(dst, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	dev := &pageTrace{Device: disk2}
	runtime.LockOSThread()
	probe, counted := fileReads() // a probe's own read calls land in the next one's count
	before, _ := fileReads()
	re, err := OpenDurableSharded[uint64, uint64](fsys2, dev, Options{}, 2)
	after, _ := fileReads()
	runtime.UnlockOSThread()
	reads := after - before - (before - probe)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := content(re); !slices.Equal(got, want) {
		t.Fatalf("reopened with %d entries, want %d (or they differ)", len(got), len(want))
	}
	if st := re.Stats(); st.WALReplayed == 0 {
		t.Fatalf("the reopen replayed no WAL tail: %+v", st)
	}
	jumps := 0
	for i, id := range dev.ids {
		if i == 0 || id != dev.ids[i-1]+1 {
			jumps++
		}
	}
	pages := len(dev.ids)
	t.Logf("%d page Reads, %d not after their predecessor, %d logs, %d file reads", pages, jumps, logs, reads)
	if jumps > 8 {
		t.Errorf("the reopen's %d page Reads jump %d times", pages, jumps)
	}
	if bound := int64((pages+63)/64 + jumps + 2*logs); counted && reads > bound {
		t.Errorf("the reopen made %d file reads for %d page Reads (%d jumps), want <= %d", reads, pages, jumps, bound)
	}
}
