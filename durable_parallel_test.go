package fitingtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// This file pins what the durable stack's bulk paths may and may not do
// now that they fan out: a cut reads nothing and lays its pages out as a
// function of the op history, a parallel open equals a serial one and
// fails the same way, and no storage call ever overlaps another.

// bumpyTree bulk-loads n keys whose gaps jump every few dozen keys, so the
// segmentation yields many pages and a shard spans several chunks.
func bumpyTree(t testing.TB, n int) *Tree[int, int] {
	t.Helper()
	keys := make([]int, n)
	vals := make([]int, n)
	seed := uint64(7)
	k := 0
	for i := range keys {
		seed = seed*6364136223846793005 + 1442695040888963407
		if i%37 == 0 {
			k += 1 + int((seed>>33)%100000)
		} else {
			k += 1 + int(seed%3)
		}
		keys[i], vals[i] = k, i
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// scatterWrites inserts count keys spread over the whole key range (every
// chunk of every shard gets dirty) and deletes a few of them again.
func scatterWrites(t testing.TB, d *DurableSharded[int, int], round, count int) {
	t.Helper()
	span := keySpan(d)
	for i := 0; i < count; i++ {
		k := (i*7919 + round*104729) % span
		if err := d.Insert(k, -round); err != nil {
			t.Fatal(err)
		}
		if i%9 == 0 {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// keySpan returns one past the largest key of the store's base trees.
func keySpan(d *DurableSharded[int, int]) int {
	trees := shardTrees(d)
	hi, _, _ := trees[len(trees)-1].Max()
	return hi + 1
}

// countingDev counts Read calls: every page a chain walk touches is one
// Read.
type countingDev struct {
	pager.Device
	reads atomic.Int64
}

func (c *countingDev) Read(id pager.PageID, buf []byte) error {
	c.reads.Add(1)
	return c.Device.Read(id, buf)
}

// TestCutReadsNoPages: a cut frees the blobs it replaces from the store's
// chain memo — on a created store, whose blobs it wrote, and on a reopened
// one, whose blobs it read — so three rounds of writes and cuts on each
// perform no device read at all.
func TestCutReadsNoPages(t *testing.T) {
	mem := wal.NewMemFS()
	dev := &countingDev{Device: pager.NewDisk()}
	d, err := CreateDurableSharded(mem, dev, bumpyTree(t, 60_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds := func(d *DurableSharded[int, int], label string) {
		d.SetAutoCheckpoint(false)
		for round := 1; round <= 3; round++ {
			scatterWrites(t, d, round, 600)
			before := dev.reads.Load()
			st, err := d.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if st.ChunksWritten < 2 {
				t.Fatalf("%s round %d replaced %d chunks; the test needs a cut that frees blobs", label, round, st.ChunksWritten)
			}
			if n := dev.reads.Load() - before; n != 0 {
				t.Fatalf("%s round %d: the cut made %d device reads, want 0", label, round, n)
			}
		}
	}
	rounds(d, "created")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableSharded[int, int](mem, dev, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds(re, "reopened")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCutLayoutDeterministic: the same op history twice yields
// byte-identical devices — a cut frees what it replaces in the previous
// cut's chain order, not in a map's, so where the next cut's blobs land
// does not vary run to run.
func TestCutLayoutDeterministic(t *testing.T) {
	image := func() []byte {
		dev := pager.NewDisk()
		d, err := CreateDurableSharded(wal.NewMemFS(), dev, bumpyTree(t, 60_000), 3)
		if err != nil {
			t.Fatal(err)
		}
		quiesce(d)
		for round := 1; round <= 4; round++ {
			scatterWrites(t, d, round, 400)
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return snapshotPages(t, dev)
	}
	a, b := image(), image()
	if len(a) != len(b) {
		t.Fatalf("the two runs left devices of %d and %d bytes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("the two runs' devices differ at page %d", i/pager.PageSize)
		}
	}
}

// cloneStorage copies a store's image, so one crashed state can be
// reopened several times (an open repairs logs and a cut rewrites pages).
func cloneStorage(t testing.TB, mem *wal.MemFS, dev pager.Device) (*wal.MemFS, *pager.Disk) {
	t.Helper()
	fs2 := wal.NewMemFS()
	for _, name := range mem.Names() {
		fs2.SetBytes(name, mem.Bytes(name))
	}
	d2 := pager.NewDisk()
	buf := make([]byte, pager.PageSize)
	for i := 0; i < dev.NumPages(); i++ {
		id := d2.Allocate()
		if err := dev.Read(pager.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if err := d2.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return fs2, d2
}

// tailedStore builds a store of the given shard count with a committed cut
// and, behind it, a WAL tail of inserts, duplicates, anonymous deletes and
// value deletes, and returns its storage without closing it (a crash).
func tailedStore(t testing.TB, shards int) (*wal.MemFS, *pager.Disk) {
	t.Helper()
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, bumpyTree(t, 40_000), shards)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetRebalanceFactor(1e18)
	scatterWrites(t, d, 1, 500)
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	scatterWrites(t, d, 2, 900)
	span := keySpan(d)
	for i := 0; i < 300; i++ {
		k := (i * 6151) % span
		for dup := 0; dup < 3; dup++ {
			if err := d.Insert(k, dup); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.DeleteValue(k, 1); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.SetAutoCheckpoint(false)
	return mem, dev
}

// openImage is everything TestParallelOpenEqualsSerial compares: the
// store as opened (shard trees still without their WAL tails), its trees
// once SyncFlush has folded the tails, and the first cut.
type openImage struct {
	pairs    [][2]int
	opened   treesImage
	flushed  treesImage
	walStats []wal.OpenStats
	free     int
	firstCut int
}

// treesImage is the layout of every shard tree of a store.
type treesImage struct {
	starts  [][]int
	weights [][]int
	snaps   [][]core.ChunkSnap[int, int]
	lens    []int
}

func treesImageOf(d *DurableSharded[int, int]) treesImage {
	var img treesImage
	for _, tr := range shardTrees(d) {
		st, w := tr.PageBounds()
		img.starts, img.weights = append(img.starts, st), append(img.weights, w)
		img.snaps = append(img.snaps, chunkSnaps(tr))
		img.lens = append(img.lens, tr.Len())
	}
	return img
}

func imageOf(t testing.TB, mem *wal.MemFS, dev pager.Device, shards, procs int) openImage {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fsys, disk := cloneStorage(t, mem, dev)
	d, err := OpenDurableSharded[int, int](fsys, disk, Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	img := openImage{pairs: dump(d), opened: treesImageOf(d), walStats: d.walStats, free: d.store.FreePages()}
	d.SyncFlush()
	img.flushed = treesImageOf(d)
	st, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	img.firstCut = st.ChunksWritten
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestParallelOpenEqualsSerial: the same crashed image reopened on one
// processor (everything inline) and on four (decode workers, one replay
// goroutine per shard) yields the same store down to every chunk's
// snapshot — as opened and once the tails are folded — log statistics,
// freelist and first cut.
func TestParallelOpenEqualsSerial(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		mem, dev := tailedStore(t, shards)
		serial := imageOf(t, mem, dev, shards, 1)
		if len(serial.opened.lens) != shards || serial.walStats[0].Records == 0 || serial.firstCut == 0 {
			t.Fatalf("%d shards: the image has %d shards, %d tail records in shard 0, a first cut of %d chunks",
				shards, len(serial.opened.lens), serial.walStats[0].Records, serial.firstCut)
		}
		parallel := imageOf(t, mem, dev, shards, 4)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%d shards: an open on 4 processors differs from one on 1:\nlens %v vs %v (flushed %v vs %v)\nfree %d vs %d, first cut %d vs %d, wal %v vs %v",
				shards, serial.opened.lens, parallel.opened.lens, serial.flushed.lens, parallel.flushed.lens, serial.free, parallel.free,
				serial.firstCut, parallel.firstCut, serial.walStats, parallel.walStats)
		}
	}
}

// blobCRC mirrors the pager's page checksum (CRC-32C over everything past
// the checksum field), so a test can plant a page that passes its CRC and
// fails only once decoded.
func blobCRC(page []byte) uint32 {
	return crc32.Checksum(page[4:], crc32.MakeTable(crc32.Castagnoli))
}

// TestParallelOpenReportsLowestCorruption: with one chunk of shard 0
// broken so that only a decode worker can notice (a key out of order under
// a valid page checksum) and a chunk of a later shard broken so that the
// reading goroutine notices at once (a failed checksum), every open
// reports shard 0's chunk, whatever the workers' schedule.
func TestParallelOpenReportsLowestCorruption(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mem, dev := tailedStore(t, 3)
	sup, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no superblock: %v", err)
	}
	m, _, err := loadShardManifest(pager.NewStore(dev), sup.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 3 || len(m.Shards[0].Chunks) < 3 || len(m.Shards[2].Chunks) < 1 {
		t.Fatalf("the test needs 3 shards with several chunks, got %d shards", len(m.Shards))
	}
	const badChunk = 2
	buf := make([]byte, pager.PageSize)
	// Shard 0, chunk 2, first page: the page's second key gets a huge high
	// byte. Header 12 B; snapshot: format 1 B, pages 4 B, start key 8 B,
	// position, count and slope 24 B, key count 4 B, then the keys.
	head := pager.PageID(m.Shards[0].Chunks[badChunk])
	if err := dev.Read(head, buf); err != nil {
		t.Fatal(err)
	}
	buf[12+1+4+8+24+4+8+7] = 0x7f
	binary.LittleEndian.PutUint32(buf, blobCRC(buf))
	if err := dev.Write(head, buf); err != nil {
		t.Fatal(err)
	}
	// Shard 2, chunk 0: a plain bit flip, caught by the page checksum.
	head = pager.PageID(m.Shards[2].Chunks[0])
	if err := dev.Read(head, buf); err != nil {
		t.Fatal(err)
	}
	buf[pager.PageSize/2] ^= 0xff
	if err := dev.Write(head, buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("checkpoint chunk %d:", badChunk)
	for run := 0; run < 50; run++ {
		fsys, disk := cloneStorage(t, mem, dev)
		_, err := OpenDurableSharded[int, int](fsys, disk, Options{}, 3)
		if err == nil || !strings.Contains(err.Error(), "shard 0:") || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "not sorted") {
			t.Fatalf("run %d: open reported %v, want shard 0's %q with the key-order failure", run, err, want)
		}
	}
}

// settledGoroutines waits for the goroutine count to come back to want
// (exited goroutines are reaped asynchronously) and returns the last count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestParallelOpenReadFaultLeavesNoGoroutine: a device read that fails in
// the middle of the load comes back as the open's error, and every decode
// worker has exited by then.
func TestParallelOpenReadFaultLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mem, dev := tailedStore(t, 2)
	for _, trip := range []int{3, dev.NumPages() / 3, dev.NumPages() / 2} {
		fsys, disk := cloneStorage(t, mem, dev)
		faulty := pager.NewFaultDevice(disk)
		faulty.SetReadTrip(trip)
		before := runtime.NumGoroutine()
		_, err := OpenDurableSharded[int, int](fsys, faulty, Options{}, 2)
		if !errors.Is(err, pager.ErrInjected) {
			t.Fatalf("read trip %d: open returned %v, want the injected fault", trip, err)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("read trip %d: %d goroutines before the open, %d after", trip, before, after)
		}
	}
}

// overlap fails the test when two calls it brackets run at the same time:
// the witness that storage calls come from one goroutine at a time.
type overlap struct {
	t    testing.TB
	what string
	busy atomic.Int32
}

func (o *overlap) enter() {
	if !o.busy.CompareAndSwap(0, 1) {
		o.t.Errorf("two %s calls overlap", o.what)
	}
	runtime.Gosched() // widen the window another goroutine would have to hit
}

func (o *overlap) exit() { o.busy.Store(0) }

// serialDev is a Device that reports overlapping calls.
type serialDev struct {
	inner pager.Device
	o     *overlap
}

func (d serialDev) Allocate() pager.PageID {
	d.o.enter()
	defer d.o.exit()
	return d.inner.Allocate()
}

func (d serialDev) NumPages() int {
	d.o.enter()
	defer d.o.exit()
	return d.inner.NumPages()
}

func (d serialDev) Read(id pager.PageID, buf []byte) error {
	d.o.enter()
	defer d.o.exit()
	return d.inner.Read(id, buf)
}

func (d serialDev) Write(id pager.PageID, buf []byte) error {
	d.o.enter()
	defer d.o.exit()
	return d.inner.Write(id, buf)
}

func (d serialDev) Sync() error {
	d.o.enter()
	defer d.o.exit()
	return d.inner.Sync()
}

// serialFS is an FS that reports overlapping calls, its files' included.
type serialFS struct {
	inner wal.FS
	o     *overlap
}

type serialFile struct {
	wal.File
	o *overlap
}

func (f serialFile) Write(p []byte) (int, error) {
	f.o.enter()
	defer f.o.exit()
	return f.File.Write(p)
}

func (f serialFile) Sync() error {
	f.o.enter()
	defer f.o.exit()
	return f.File.Sync()
}

func (f serialFile) Close() error {
	f.o.enter()
	defer f.o.exit()
	return f.File.Close()
}

func (s serialFS) Create(name string) (wal.File, error) {
	s.o.enter()
	defer s.o.exit()
	f, err := s.inner.Create(name)
	return serialFile{f, s.o}, err
}

func (s serialFS) Append(name string) (wal.File, error) {
	s.o.enter()
	defer s.o.exit()
	f, err := s.inner.Append(name)
	return serialFile{f, s.o}, err
}

func (s serialFS) Open(name string) (io.ReadCloser, error) {
	s.o.enter()
	defer s.o.exit()
	return s.inner.Open(name)
}

func (s serialFS) Remove(name string) error {
	s.o.enter()
	defer s.o.exit()
	return s.inner.Remove(name)
}

func (s serialFS) Rename(oldname, newname string) error {
	s.o.enter()
	defer s.o.exit()
	return s.inner.Rename(oldname, newname)
}

// TestParallelOpenKeepsStorageCallsSerial: through create, cuts, a
// rebalance and a reopen with a WAL tail, on four processors and with one
// client, no two Device calls overlap and no two FS or log-file calls do —
// the workers the bulk paths start decode, encode, bulk-load and replay,
// and never touch storage.
func TestParallelOpenKeepsStorageCallsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dev := serialDev{pager.NewDisk(), &overlap{t: t, what: "Device"}}
	fsys := serialFS{wal.NewMemFS(), &overlap{t: t, what: "FS"}}
	d, err := CreateDurableSharded[int, int](fsys, dev, bumpyTree(t, 40_000), 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for round := 1; round <= 2; round++ {
		scatterWrites(t, d, round, 500)
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	scatterWrites(t, d, 3, 500)
	want := dump(d)
	d.SetAutoCheckpoint(false) // dropped, not closed: the reopen replays the tail

	re, err := OpenDurableSharded[int, int](fsys, dev, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(re); !pairsEqual(got, want) {
		t.Fatalf("reopened %d pairs, want %d", len(got), len(want))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
