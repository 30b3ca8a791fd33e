package wal

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// gatedFS counts the Write and Sync calls of the handles it hands out, and
// every Sync of a handle on the file named gated first takes its result
// from gate: the test decides when, and how, that barrier ends.
type gatedFS struct {
	FS
	gated  string
	gate   chan error
	writes atomic.Int32
	syncs  atomic.Int32
}

func newGatedFS(gated string) (*MemFS, *gatedFS) {
	mem := NewMemFS()
	return mem, &gatedFS{FS: mem, gated: gated, gate: make(chan error)}
}

func (g *gatedFS) Create(name string) (File, error) {
	f, err := g.FS.Create(name)
	return &gatedFile{File: f, fs: g, gated: name == g.gated}, err
}

func (g *gatedFS) Append(name string) (File, error) {
	f, err := g.FS.Append(name)
	return &gatedFile{File: f, fs: g, gated: name == g.gated}, err
}

type gatedFile struct {
	File
	fs    *gatedFS
	gated bool
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f *gatedFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.gated {
		if err := <-f.fs.gate; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// openShared opens one log per name over fsys, all sharing g.
func openShared(t *testing.T, fsys FS, g *Group, names ...string) []*Log {
	t.Helper()
	logs := make([]*Log, len(names))
	for i, name := range names {
		l, _, _, err := Open(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		l.Share(g)
		logs[i] = l
	}
	return logs
}

// appendN appends n one-byte records to l.
func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	if err := appends(l, n); err != nil {
		t.Fatal(err)
	}
}

func appends(l *Log, n int) error {
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			return err
		}
	}
	return nil
}

// promptly appends n records to each of logs on another goroutine and
// fails the test unless that returns within 10 s: an append that waits for
// a held barrier never does.
func promptly(t *testing.T, n int, logs ...*Log) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for _, l := range logs {
			if err := appends(l, n); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("appends waited for the barrier in flight")
	}
}

// awaitIdle waits until no barrier of g is in flight.
func awaitIdle(t *testing.T, g *Group) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("barrier still in flight after 10 s")
		}
		runtime.Gosched()
	}
}

// lsns returns the LSNs of the intact records in data.
func lsns(data []byte) []uint64 {
	recs, _ := parseRecords(data)
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

func equalLSNs(got []uint64, from, to uint64) bool {
	if uint64(len(got)) != to-from {
		return false
	}
	for i, lsn := range got {
		if lsn != from+uint64(i) {
			return false
		}
	}
	return true
}

// TestAppendHoldsWhileBarrierInFlight pins the store-wide count: while one
// log's background barrier is in flight, appends to every log sharing the
// group stay in their buffers (no Write), a second barrier of the same log
// is absorbed, and once the barrier ends each log's next append writes its
// held records and itself with one Write.
func TestAppendHoldsWhileBarrierInFlight(t *testing.T) {
	mem, fsys := newGatedFS("a")
	g := &Group{}
	logs := openShared(t, fsys, g, "a", "b")
	a, b := logs[0], logs[1]
	appendN(t, a, 3)
	if n := fsys.writes.Load(); n != 3 {
		t.Fatalf("%d writes for 3 appends with no barrier in flight", n)
	}
	if started, err := a.SyncBehind(); !started || err != nil {
		t.Fatalf("SyncBehind = %v, %v", started, err)
	}
	promptly(t, 2, a, b)
	if started, err := a.SyncBehind(); started || err != nil {
		t.Fatalf("second SyncBehind while the first is in flight = %v, %v", started, err)
	}
	if n := fsys.writes.Load(); n != 3 {
		t.Fatalf("%d writes while a barrier was in flight, want 3", n)
	}
	if got := lsns(mem.Bytes("b")); len(got) != 0 {
		t.Fatalf("b's file holds %v while a's barrier is in flight", got)
	}

	fsys.gate <- nil
	awaitIdle(t, g)
	appendN(t, b, 1)
	if n := fsys.writes.Load(); n != 4 {
		t.Fatalf("%d writes after b's next append, want 4", n)
	}
	if got := lsns(mem.Bytes("b")); !equalLSNs(got, 0, 3) {
		t.Fatalf("b's file holds %v, want LSNs 0-2", got)
	}
	appendN(t, a, 1)
	if n := fsys.writes.Load(); n != 5 {
		t.Fatalf("%d writes after a's next append, want 5", n)
	}
	if got := lsns(mem.Bytes("a")); !equalLSNs(got, 0, 6) {
		t.Fatalf("a's file holds %v, want LSNs 0-5", got)
	}
	close(fsys.gate)
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTruncateAndCloseKeepHeldRecords checks the flush points: Truncate
// and Close write the held records before they read or sync, and a log's
// own in-flight barrier is waited for first, so nothing held is lost and
// the file keeps LSN order.
func TestTruncateAndCloseKeepHeldRecords(t *testing.T) {
	mem, fsys := newGatedFS("a")
	g := &Group{}
	logs := openShared(t, fsys, g, "a", "b")
	a, b := logs[0], logs[1]
	appendN(t, a, 4)
	if started, err := a.SyncBehind(); !started || err != nil {
		t.Fatalf("SyncBehind = %v, %v", started, err)
	}
	promptly(t, 3, a) // LSNs 4-6, held
	promptly(t, 5, b) // LSNs 0-4, held

	if err := b.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if got := lsns(mem.Bytes("b")); !equalLSNs(got, 2, 5) {
		t.Fatalf("b after Truncate(1) holds %v, want LSNs 2-4", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	close(fsys.gate) // a's barrier, and every later Sync of a, succeeds
	if err := a.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 6 {
		t.Fatalf("a.Len() = %d after Truncate(0), want 6", a.Len())
	}
	appendN(t, a, 2) // LSNs 7-8
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	for _, c := range []struct {
		name     string
		from, to uint64
	}{{"a", 1, 9}, {"b", 2, 5}} {
		if got := lsns(mem.Bytes(c.name)); !equalLSNs(got, c.from, c.to) {
			t.Fatalf("%s after Close and a crash holds %v, want LSNs %d-%d", c.name, got, c.from, c.to-1)
		}
	}
}

// TestFailedBarrierIsReportedNotRetried checks that a background barrier's
// failed fsync is recorded in the group by the barrier's goroutine, and
// that the next Sync returns it without an fsync of its own.
func TestFailedBarrierIsReportedNotRetried(t *testing.T) {
	_, fsys := newGatedFS("a")
	g := &Group{}
	a := openShared(t, fsys, g, "a")[0]
	appendN(t, a, 2)
	if started, err := a.SyncBehind(); !started || err != nil {
		t.Fatalf("SyncBehind = %v, %v", started, err)
	}
	errBoom := errors.New("boom")
	fsys.gate <- errBoom
	awaitIdle(t, g)
	if err := g.Err(); !errors.Is(err, errBoom) {
		t.Fatalf("the group recorded %v, want %v", err, errBoom)
	}
	syncs := fsys.syncs.Load()
	if err := a.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("Sync after a failed barrier = %v, want %v", err, errBoom)
	}
	if n := fsys.syncs.Load(); n != syncs {
		t.Fatalf("Sync after a failed barrier made %d fsyncs", n-syncs)
	}
	close(fsys.gate)
	a.Close()
}

// nopFile accepts and drops everything.
type nopFile struct{}

func (nopFile) Write(p []byte) (int, error) { return len(p), nil }
func (nopFile) Sync() error                 { return nil }
func (nopFile) Close() error                { return nil }

// TestAppendAllocatesNothing pins the reused frame buffer: a steady-state
// Append allocates nothing, with and without a group.
func TestAppendAllocatesNothing(t *testing.T) {
	payload := make([]byte, 24)
	for _, shared := range []bool{false, true} {
		_, l := openEmpty(t)
		if shared {
			l.Share(&Group{})
		}
		l.f = nopFile{}
		l.Append(payload) // the buffer's first growth
		if n := testing.AllocsPerRun(1000, func() { l.Append(payload) }); n != 0 {
			t.Fatalf("shared=%v: %v allocations per Append", shared, n)
		}
	}
}
