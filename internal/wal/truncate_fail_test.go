package wal

import (
	"errors"
	"testing"
)

// failWritesFS fails every Write to the file called name while err is set.
type failWritesFS struct {
	FS
	name string
	err  error
}

func (w *failWritesFS) Create(name string) (File, error) {
	f, err := w.FS.Create(name)
	return &failWritesFile{File: f, fs: w, named: name == w.name}, err
}

func (w *failWritesFS) Append(name string) (File, error) {
	f, err := w.FS.Append(name)
	return &failWritesFile{File: f, fs: w, named: name == w.name}, err
}

type failWritesFile struct {
	File
	fs    *failWritesFS
	named bool
}

func (f *failWritesFile) Write(p []byte) (int, error) {
	if f.named && f.fs.err != nil {
		return 0, f.fs.err
	}
	return f.File.Write(p)
}

// TestTruncateFailedFlushPoisonsGroup pins Truncate's flush point: when
// writing a log's held records fails, they are dropped, so the failure is
// recorded in the group. Every later Append, Commit and Barrier of every
// log sharing it returns the error, and both files reopen with gap-free
// LSNs — an append after the dropped records would leave a gap.
func TestTruncateFailedFlushPoisonsGroup(t *testing.T) {
	mem, gated := newGatedFS("a")
	fsys := &failWritesFS{FS: gated, name: "b"}
	g := &Group{}
	logs := openShared(t, fsys, g, "a", "b")
	a, b := logs[0], logs[1]
	appendN(t, a, 2)
	appendN(t, b, 2) // LSNs 0-1, written
	if started, err := a.SyncBehind(); !started || err != nil {
		t.Fatalf("SyncBehind = %v, %v", started, err)
	}
	promptly(t, 3, b) // LSNs 2-4, held behind a's barrier

	errBoom := errors.New("boom")
	fsys.err = errBoom
	if err := b.Truncate(0); !errors.Is(err, errBoom) {
		t.Fatalf("Truncate with a failing Write = %v, want %v", err, errBoom)
	}
	fsys.err = nil // the file works again: only the recorded failure refuses
	close(gated.gate)
	awaitIdle(t, g)
	for _, l := range logs {
		if _, err := l.Append([]byte{9}); !errors.Is(err, errBoom) {
			t.Fatalf("%s: Append after the failed truncate = %v, want %v", l.name, err, errBoom)
		}
		if err := l.Commit(); !errors.Is(err, errBoom) {
			t.Fatalf("%s: Commit after the failed truncate = %v, want %v", l.name, err, errBoom)
		}
		if err := l.Barrier(); !errors.Is(err, errBoom) {
			t.Fatalf("%s: Barrier after the failed truncate = %v, want %v", l.name, err, errBoom)
		}
	}
	for _, l := range logs {
		l.Close()
	}
	for _, name := range []string{"a", "b"} {
		_, recs, _, err := Open(mem, name)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.LSN != uint64(i) {
				t.Fatalf("%s reopens with LSN %d at record %d: a gap", name, r.LSN, i)
			}
		}
	}
}
