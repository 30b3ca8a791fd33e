package wal

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestCommitBatchOfOneSyncsOnCaller pins the synchronous policy: with a
// batch of one (set, or the zero Group's default) every committed op makes
// one Write and one Sync before Commit returns and starts no background
// barrier, and a Barrier with nothing committed since fsyncs nothing.
func TestCommitBatchOfOneSyncsOnCaller(t *testing.T) {
	for _, batch := range []int{0, 1} {
		_, fsys := newGatedFS("") // no file is gated
		g := &Group{}
		if batch > 0 {
			g.SetBatch(batch)
		}
		a := openShared(t, fsys, g, "a")[0]
		for i := int32(1); i <= 5; i++ {
			commitN(t, a, 1)
			if w, s := fsys.writes.Load(), fsys.syncs.Load(); w != i || s != i {
				t.Fatalf("batch %d: %d writes and %d syncs after %d ops, want %d each", batch, w, s, i, i)
			}
			if a.done != nil || a.held {
				t.Fatalf("batch %d: op %d started a background barrier", batch, i)
			}
		}
		if err := a.Barrier(); err != nil {
			t.Fatal(err)
		}
		if s := fsys.syncs.Load(); s != 5 {
			t.Fatalf("batch %d: Barrier with nothing committed since fsynced (%d syncs)", batch, s)
		}
		a.Close()
	}
}

// TestCommitStartsBarrierOnNthOp pins the background policy with a batch
// of 4, holding each barrier at its fsync: the 4th committed op starts
// one and the log holds its appends from then on; ops committed while it
// is in flight start nothing; the first op after it ends starts the next
// (the batch grew to 5), which writes the held ops with one Write; then
// the 4th op after that one began starts the third. A Barrier fsyncs only
// when ops were committed since the last barrier began, and ends the
// hold.
func TestCommitStartsBarrierOnNthOp(t *testing.T) {
	_, fsys := newGatedFS("a")
	g := &Group{}
	g.SetBatch(4)
	a := openShared(t, fsys, g, "a")[0]
	expect := func(step string, writes, syncs int32, inflight bool) {
		t.Helper()
		if w := fsys.writes.Load(); w != writes {
			t.Fatalf("%s: %d writes, want %d", step, w, writes)
		}
		if s := fsys.syncs.Load(); s != syncs {
			t.Fatalf("%s: %d syncs, want %d", step, s, syncs)
		}
		if got := inFlight(a); got != inflight {
			t.Fatalf("%s: barrier in flight = %v, want %v", step, got, inflight)
		}
	}
	// started checks that the op just committed started a barrier, and
	// waits until that barrier is held at its fsync, the syncs-th.
	started := func(step string, syncs int32) {
		t.Helper()
		if !inFlight(a) || a.unsynced != 0 || !a.held {
			t.Fatalf("%s started no barrier", step)
		}
		awaitSyncs(t, fsys, syncs)
	}
	release := func() {
		fsys.gate <- nil
		awaitEnded(t, a)
	}

	commitN(t, a, 3)
	expect("ops 1-3", 3, 0, false)
	commitN(t, a, 1) // written, then the barrier starts with nothing held
	started("op 4", 1)
	commitN(t, a, 4) // op 8 completes a batch while the barrier is held
	expect("ops 5-8, barrier held", 4, 1, true)
	release()
	expect("barrier 1 ended", 4, 1, false)

	commitN(t, a, 1) // its barrier writes the held ops 5-9 with one Write
	started("op 9", 2)
	expect("op 9", 5, 2, true)
	release()
	commitN(t, a, 3)
	expect("ops 10-12, held", 5, 2, false)
	commitN(t, a, 1)
	started("op 13", 3)
	release()
	expect("barrier 3 ended", 6, 3, false)

	close(fsys.gate) // every later fsync of a passes at once
	if err := a.Barrier(); err != nil {
		t.Fatal(err)
	}
	expect("Barrier with nothing committed since", 6, 3, false)
	commitN(t, a, 3) // written through: the Barrier ended the hold
	expect("ops 14-16", 9, 3, false)
	if err := a.Barrier(); err != nil {
		t.Fatal(err)
	}
	expect("Barrier after op 16", 9, 4, false)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// failFS hands out files whose Write and Sync fail with writeErr and
// syncErr when those are set, counting the calls that reach a file. The
// test changes the errors only while no barrier is in flight.
type failFS struct {
	FS
	writeErr, syncErr error
	calls             atomic.Int32
}

func (f *failFS) Append(name string) (File, error) {
	file, err := f.FS.Append(name)
	return &failFile{File: file, fs: f}, err
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFile) Write(p []byte) (int, error) {
	f.fs.calls.Add(1)
	if err := f.fs.writeErr; err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	f.fs.calls.Add(1)
	if err := f.fs.syncErr; err != nil {
		return err
	}
	return f.File.Sync()
}

// TestFailureRecordedOnceAndReturned fails a log's Append, Sync or
// background barrier: the group records that failure, a later failure
// does not replace it, and every later Append, Commit and Barrier of every
// log in the group returns it without touching a file.
func TestFailureRecordedOnceAndReturned(t *testing.T) {
	errFirst, errSecond := errors.New("first"), errors.New("second")
	for _, c := range []struct {
		name string
		fail func(fsys *failFS, a *Log) error
	}{
		{"Append", func(fsys *failFS, a *Log) error {
			fsys.writeErr = errFirst
			_, err := a.Append([]byte{1})
			return err
		}},
		{"Sync", func(fsys *failFS, a *Log) error {
			fsys.syncErr = errFirst
			return a.Sync()
		}},
		{"barrier", func(fsys *failFS, a *Log) error {
			fsys.syncErr = errFirst
			commitN(t, a, 1) // the batch's 2nd op: the barrier starts
			awaitEnded(t, a)
			return a.wait()
		}},
	} {
		fsys := &failFS{FS: NewMemFS()}
		g := &Group{}
		g.SetBatch(2)
		logs := openShared(t, fsys, g, "a", "b")
		a, b := logs[0], logs[1]
		commitN(t, a, 1)
		if err := c.fail(fsys, a); !errors.Is(err, errFirst) {
			t.Fatalf("%s: the failing call returned %v, want %v", c.name, err, errFirst)
		}
		fsys.writeErr, fsys.syncErr = errSecond, errSecond
		a.Sync() // fails again, with errSecond
		calls := fsys.calls.Load()
		for _, l := range logs {
			if _, err := l.Append([]byte{2}); !errors.Is(err, errFirst) {
				t.Fatalf("%s: a later Append returned %v, want %v", c.name, err, errFirst)
			}
			if err := l.Commit(); !errors.Is(err, errFirst) {
				t.Fatalf("%s: a later Commit returned %v, want %v", c.name, err, errFirst)
			}
			if err := l.Barrier(); !errors.Is(err, errFirst) {
				t.Fatalf("%s: a later Barrier returned %v, want %v", c.name, err, errFirst)
			}
			if err := l.Err(); !errors.Is(err, errFirst) {
				t.Fatalf("%s: Err = %v, want %v", c.name, err, errFirst)
			}
		}
		if n := fsys.calls.Load() - calls; n != 0 {
			t.Fatalf("%s: %d file calls after the group recorded a failure", c.name, n)
		}
		b.Close()
		a.Close()
	}
}
