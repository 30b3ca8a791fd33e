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

// commitN appends and commits n one-byte records to l.
func commitN(t *testing.T, l *Log, n int) {
	t.Helper()
	if err := commits(l, n); err != nil {
		t.Fatal(err)
	}
}

func commits(l *Log, n int) error {
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			return err
		}
		if err := l.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// promptly runs ops on another goroutine and fails the test unless it
// returns within 10 s: an append or commit that waits for a held barrier
// never does.
func promptly(t *testing.T, ops func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ops() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("appends waited for the barrier in flight")
	}
}

// inFlight reports whether l's background barrier is still running.
func inFlight(l *Log) bool { return l.done != nil && len(l.done) == 0 }

// awaitEnded waits until l's background barrier, if any, has ended.
func awaitEnded(t *testing.T, l *Log) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for inFlight(l) {
		if time.Now().After(deadline) {
			t.Fatal("barrier still in flight after 10 s")
		}
		runtime.Gosched()
	}
}

// awaitSyncs waits until fsys has seen n Sync calls: a background barrier
// counts its fsync on entry, after its Write.
func awaitSyncs(t *testing.T, fsys *gatedFS, n int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fsys.syncs.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d fsyncs after 10 s", fsys.syncs.Load(), n)
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

// TestAppendHoldsWhileBarrierInFlight pins the per-log hold: once a log's
// background barrier begins, that log's appends stay in its buffer (no
// Write) while the barrier is in flight and after it ends, a full batch
// committed meanwhile starts nothing, and another log of the group writes
// through all along. The log's next barrier writes the held records with
// one Write, and a Barrier ends the hold: the next append writes through.
func TestAppendHoldsWhileBarrierInFlight(t *testing.T) {
	mem, fsys := newGatedFS("a")
	g := &Group{}
	g.SetBatch(4)
	logs := openShared(t, fsys, g, "a", "b")
	a, b := logs[0], logs[1]
	commitN(t, a, 4) // LSNs 0-3, written; the 4th starts a's barrier
	awaitSyncs(t, fsys, 1)
	promptly(t, func() error {
		if err := commits(a, 5); err != nil { // LSNs 4-8, held: a full batch
			return err
		}
		return appends(b, 2)
	})
	if n := fsys.writes.Load(); n != 6 {
		t.Fatalf("%d writes while a's barrier was in flight, want 6", n)
	}
	if got := lsns(mem.Bytes("b")); !equalLSNs(got, 0, 2) {
		t.Fatalf("b's file holds %v while a's barrier is in flight, want LSNs 0-1", got)
	}
	if got := lsns(mem.Bytes("a")); !equalLSNs(got, 0, 4) {
		t.Fatalf("a's file holds %v while its barrier is in flight, want LSNs 0-3", got)
	}

	fsys.gate <- nil
	awaitEnded(t, a)
	appendN(t, a, 1) // LSN 9, still held
	if n := fsys.writes.Load(); n != 6 {
		t.Fatalf("%d writes after a's barrier ended, want 6", n)
	}
	commitN(t, a, 1) // LSN 10; the commit starts the next barrier
	awaitSyncs(t, fsys, 2)
	if n := fsys.writes.Load(); n != 7 {
		t.Fatalf("%d writes after a's second barrier began, want 7", n)
	}
	if got := lsns(mem.Bytes("a")); !equalLSNs(got, 0, 11) {
		t.Fatalf("a's file holds %v, want LSNs 0-10", got)
	}
	fsys.gate <- nil
	if err := a.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := fsys.syncs.Load(); n != 2 {
		t.Fatalf("%d syncs after a Barrier with nothing committed since, want 2", n)
	}
	appendN(t, a, 1) // LSN 11, written
	if n := fsys.writes.Load(); n != 8 {
		t.Fatalf("%d writes after the Barrier and an append, want 8", n)
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
	g.SetBatch(4)
	logs := openShared(t, fsys, g, "a", "b")
	a, b := logs[0], logs[1]
	commitN(t, a, 4)                                   // a's barrier starts, held at its fsync
	commitN(t, b, 4)                                   // b's barrier starts
	promptly(t, func() error { return appends(a, 3) }) // LSNs 4-6, held
	promptly(t, func() error { return appends(b, 3) }) // LSNs 4-6, held

	if err := b.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if got := lsns(mem.Bytes("b")); !equalLSNs(got, 2, 7) {
		t.Fatalf("b after Truncate(1) holds %v, want LSNs 2-6", got)
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
	appendN(t, a, 2) // LSNs 7-8, held
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	for _, c := range []struct {
		name     string
		from, to uint64
	}{{"a", 1, 9}, {"b", 2, 7}} {
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
	g.SetBatch(2)
	a := openShared(t, fsys, g, "a")[0]
	commitN(t, a, 2) // the 2nd op starts the barrier
	errBoom := errors.New("boom")
	fsys.gate <- errBoom
	awaitEnded(t, a)
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
