package fitingtree

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// gatedFS wraps a wal.FS for the group-commit tests. It counts the Write
// and Sync calls of its handles, in all and per file name, and fails the
// next failSyncs Syncs; when gate is non-nil, every Sync of the file named
// gated first reports on entered and then takes its result from gate, so
// the test decides when, and how, a barrier ends.
type gatedFS struct {
	wal.FS
	gated     string
	gate      chan error
	entered   chan struct{}
	writes    atomic.Int32
	syncs     atomic.Int32
	failSyncs atomic.Int32

	mu    sync.Mutex
	files map[string]*fileCalls
}

// fileCalls counts the Write and Sync calls made on one file name, and
// the Syncs that returned.
type fileCalls struct{ writes, syncs, synced atomic.Int32 }

// calls returns name's counters.
func (g *gatedFS) calls(name string) *fileCalls {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.files == nil {
		g.files = make(map[string]*fileCalls)
	}
	c := g.files[name]
	if c == nil {
		c = new(fileCalls)
		g.files[name] = c
	}
	return c
}

// newGatedFS gates the Syncs of shard 0's generation-0 log.
func newGatedFS(inner wal.FS) *gatedFS {
	return &gatedFS{FS: inner, gated: shardWALName(0, 0), gate: make(chan error, 1), entered: make(chan struct{}, 16)}
}

func (g *gatedFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	return &gatedFile{File: f, fs: g, gated: name == g.gated, calls: g.calls(name)}, err
}

func (g *gatedFS) Append(name string) (wal.File, error) {
	f, err := g.FS.Append(name)
	return &gatedFile{File: f, fs: g, gated: name == g.gated, calls: g.calls(name)}, err
}

type gatedFile struct {
	wal.File
	fs    *gatedFS
	gated bool // named gated; its Syncs wait while the FS has a gate
	calls *fileCalls
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.calls.writes.Add(1)
	return f.File.Write(p)
}

var errInjectedSync = errors.New("injected fsync failure")

func (f *gatedFile) Sync() error {
	f.fs.syncs.Add(1)
	f.calls.syncs.Add(1)
	defer f.calls.synced.Add(1)
	if f.fs.failSyncs.Add(-1) >= 0 {
		return errInjectedSync
	}
	if f.gated && f.fs.gate != nil {
		f.fs.entered <- struct{}{}
		if err := <-f.fs.gate; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// within fails the test unless cond holds within 10 s, yielding between
// checks.
func within(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10 s", what)
		}
		runtime.Gosched()
	}
}

// insertRange inserts keys [lo, hi) with value == key.
func insertRange(t *testing.T, d *DurableSharded[int, int], lo, hi int) {
	t.Helper()
	if err := inserts(d, lo, hi); err != nil {
		t.Fatal(err)
	}
}

func inserts(d *DurableSharded[int, int], lo, hi int) error {
	for k := lo; k < hi; k++ {
		if err := d.Insert(k, k); err != nil {
			return fmt.Errorf("insert %d: %w", k, err)
		}
	}
	return nil
}

// promptly inserts keys [lo, hi) on another goroutine and fails the test
// unless they return within 10 s: writes that wait for a held barrier
// never do.
func promptly(t *testing.T, d *DurableSharded[int, int], lo, hi int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- inserts(d, lo, hi) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writes waited for the held barrier")
	}
}

// checkAckedPrefix reopens a crashed image and checks that it holds keys
// [0, m) for some m >= acked, and nothing else.
func checkAckedPrefix(t *testing.T, mem *wal.MemFS, dev pager.Device, acked int) {
	t.Helper()
	rec := openStore(t, mem, dev, 1)
	defer rec.Close()
	m := rec.Len()
	if m < acked {
		t.Fatalf("recovered %d keys, %d were acknowledged by Sync", m, acked)
	}
	next := 0
	rec.AscendRange(0, 1<<30, func(k, v int) bool {
		if k != next || v != k {
			t.Fatalf("recovered key %d (value %d) where %d was due: not a prefix", k, v, next)
		}
		next++
		return true
	})
}

// TestSyncRefusesAfterFailedFsync pins that a failed fsync is never
// retried and acknowledged: once a Sync has failed, a second Sync returns
// an error even though the device would now sync.
func TestSyncRefusesAfterFailedFsync(t *testing.T) {
	fsys := &gatedFS{FS: wal.NewMemFS()}
	d, err := OpenDurableSharded[int, int](fsys, pager.NewDisk(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetSyncEvery(64)
	insertRange(t, d, 0, 10)
	fsys.failSyncs.Store(1)
	if err := d.Sync(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("first Sync = %v, want the injected failure", err)
	}
	if err := d.Sync(); err == nil {
		t.Fatal("second Sync acknowledged after a failed fsync")
	}
	if err := d.Err(); err == nil {
		t.Fatal("Err is nil after a failed fsync")
	}
}

// TestBackgroundBarrierHoldsAndCoalesces holds a group-commit barrier at
// its fsync: writes return without waiting for it and reach no file, and
// they stay held after it ends. The next barrier — started by the first
// write after the held one ends, the batch having grown meanwhile — or the
// next Sync writes the held group with one Write, and a crash keeps every
// write an explicit Sync acknowledged.
func TestBackgroundBarrierHoldsAndCoalesces(t *testing.T) {
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	fsys := newGatedFS(mem)
	d, err := OpenDurableSharded[int, int](fsys, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetSyncEvery(8)
	promptly(t, d, 0, 8) // the 8th write starts the barrier
	select {
	case <-fsys.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no barrier reached the fsync after 8 writes")
	}
	writes, size := fsys.writes.Load(), len(mem.Bytes(fsys.gated))

	promptly(t, d, 8, 28) // two more full batches while the barrier is held
	if n := fsys.writes.Load() - writes; n != 0 {
		t.Fatalf("%d Write calls while the barrier was held", n)
	}
	if n := len(mem.Bytes(fsys.gated)); n != size {
		t.Fatalf("the log grew from %d to %d bytes while the barrier was held", size, n)
	}

	// The first write after the held barrier ends starts the next one,
	// which writes the group; the writes before it stay held.
	fsys.gate <- nil
	k := 28
	for len(fsys.entered) == 0 {
		if k > 1<<16 {
			t.Fatal("no barrier reached the fsync after the first was released")
		}
		insertRange(t, d, k, k+1)
		k++
		runtime.Gosched()
	}
	<-fsys.entered
	if n := fsys.writes.Load() - writes; n != 1 {
		t.Fatalf("%d Write calls flushed the held group, want 1", n)
	}
	logged := func() int {
		copyFS := wal.NewMemFS()
		copyFS.SetBytes(fsys.gated, mem.Bytes(fsys.gated))
		_, recs, _, err := wal.Open(copyFS, fsys.gated)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	if n := logged(); n <= 28 || n > k {
		t.Fatalf("the log holds %d records after the flush, want 29-%d", n, k)
	}

	// Sync writes what the second barrier left held with one Write.
	d.SetSyncEvery(1 << 20) // no further barrier starts
	fsys.gate <- nil        // ends the second barrier
	insertRange(t, d, k, k+3)
	k += 3
	writes = fsys.writes.Load()
	fsys.gate <- nil // the explicit Sync's fsync
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := fsys.writes.Load() - writes; n != 1 {
		t.Fatalf("Sync wrote the held group with %d Write calls, want 1", n)
	}
	if n := logged(); n != k {
		t.Fatalf("the log holds %d records after Sync, want %d", n, k)
	}
	insertRange(t, d, k, k+5) // unacknowledged
	mem.Crash()
	checkAckedPrefix(t, mem, dev, k)
}

// TestGroupCommitCountsFollowOps runs one op stream twice through a
// two-shard store with a batch of 16. Each round makes 16 writes to shard
// 0 (its 16th starts a background barrier), 24 to shard 1 and 8 more to
// shard 0, then a Sync; the last round ends with Close instead. In the
// first run every fsync returns at once, and shard 1's writes start once
// shard 0's barrier fsync has returned; in the second, that barrier is
// held at its fsync until 4 of shard 0's writes after shard 1's. Each
// log's Write and Sync counts must match: whether an append writes follows
// its own log's ops, never another log's fsync.
func TestGroupCommitCountsFollowOps(t *testing.T) {
	const batch, round, lateBy = 16, 24, 4
	run := func(gated bool) map[string][2]int32 {
		keys := make([]int, 4000)
		for i := range keys {
			keys[i] = i
		}
		tree, err := BulkLoad(keys, keys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fsys := &gatedFS{FS: wal.NewMemFS(), gated: shardWALName(0, 0)}
		d, err := CreateDurableSharded(fsys, pager.NewDisk(), tree, 2)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAutoCheckpoint(false)
		d.SetSyncEvery(batch)
		if n := d.Shards(); n != 2 {
			t.Fatalf("%d shards, want 2", n)
		}
		if gated { // gates the logs' Syncs from here on
			fsys.gate, fsys.entered = make(chan error, 1), make(chan struct{}, 16)
		}
		lo, hi := -round*8, len(keys) // below shard 0's keys, above shard 1's
		s0 := fsys.calls(shardWALName(0, 0))
		for r := 0; r < 4; r++ {
			barrier := s0.syncs.Load() + 1
			ended := func() {
				within(t, "shard 0's barrier fsync", func() bool { return s0.synced.Load() >= barrier })
			}
			insertRange(t, d, lo, lo+batch)
			if gated {
				<-fsys.entered // shard 0's barrier is held
			} else {
				ended()
			}
			insertRange(t, d, hi, hi+round)
			insertRange(t, d, lo+batch, lo+batch+lateBy)
			if gated {
				fsys.gate <- nil
				ended()
			}
			insertRange(t, d, lo+batch+lateBy, lo+round)
			lo, hi = lo+round, hi+round
			if r == 3 {
				break
			}
			if gated {
				fsys.gate <- nil // the Sync's own fsync of shard 0
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if gated {
				<-fsys.entered
			}
		}
		if gated {
			close(fsys.gate)
		}
		if err := d.Close(); err != nil { // waits for every barrier
			t.Fatal(err)
		}
		counts := make(map[string][2]int32)
		for i := 0; i < 2; i++ {
			name := shardWALName(0, i)
			c := fsys.calls(name)
			counts[name] = [2]int32{c.writes.Load(), c.syncs.Load()}
		}
		return counts
	}
	prompt, late := run(false), run(true)
	for name, want := range prompt {
		if got := late[name]; got != want {
			t.Errorf("%s: %d Writes and %d Syncs with a late fsync, %d and %d with a prompt one",
				name, got[0], got[1], want[0], want[1])
		}
	}
}

// TestBackgroundBarrierFailurePoisons fails a held background barrier: the
// barrier's goroutine poisons the store, so the next Insert, Sync and
// Close fail without another fsync, and a crash recovers a prefix holding
// every write the earlier Sync acknowledged.
func TestBackgroundBarrierFailurePoisons(t *testing.T) {
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	fsys := newGatedFS(mem)
	d, err := OpenDurableSharded[int, int](fsys, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetSyncEvery(8)
	insertRange(t, d, 0, 5)
	fsys.gate <- nil
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	<-fsys.entered
	promptly(t, d, 5, 13) // a full batch: the barrier starts
	<-fsys.entered
	promptly(t, d, 13, 20) // held
	fsys.gate <- errInjectedSync
	within(t, "poison from the failed barrier", func() bool { return d.Err() != nil })
	close(fsys.gate) // a further fsync would pass, and is counted
	syncs := fsys.syncs.Load()
	if err := d.Insert(20, 20); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Insert after the failed barrier = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Sync after the failed barrier = %v", err)
	}
	if err := d.Close(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Close after the failed barrier = %v", err)
	}
	if n := fsys.syncs.Load() - syncs; n != 0 {
		t.Fatalf("%d fsyncs after the failed barrier", n)
	}
	mem.Crash()
	checkAckedPrefix(t, mem, dev, 5)
}
