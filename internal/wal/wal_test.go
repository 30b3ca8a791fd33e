package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// openEmpty opens a fresh log over a fresh MemFS, failing the test on
// error.
func openEmpty(t *testing.T) (*MemFS, *Log) {
	t.Helper()
	fs := NewMemFS()
	l, recs, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Records != 0 || stats.TornBytes != 0 {
		t.Fatalf("fresh log not empty: %v %+v", recs, stats)
	}
	return fs, l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs, l := openEmpty(t)
	for i := 0; i < 100; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 || stats.TornBytes != 0 {
		t.Fatalf("replayed %d records, torn %d", len(recs), stats.TornBytes)
	}
	for i, r := range recs {
		if r.LSN != uint64(i) || string(r.Payload) != fmt.Sprintf("op-%d", i) {
			t.Fatalf("record %d = %d %q", i, r.LSN, r.Payload)
		}
	}
}

func TestCrashDropsUnsynced(t *testing.T) {
	fs, l := openEmpty(t)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No sync: a crash loses the second batch.
	fs.Crash()
	_, recs, _, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("replayed %d records after crash, want 10", len(recs))
	}
}

func TestTornTailIsCutAndRepaired(t *testing.T) {
	fs, l := openEmpty(t)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	// Tear the file mid-final-record.
	data := fs.Bytes("wal.log")
	fs.SetBytes("wal.log", data[:len(data)-2])
	_, recs, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	if stats.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The repair must be persistent: a second open sees a clean log.
	_, recs2, stats2, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 4 || stats2.TornBytes != 0 {
		t.Fatalf("repair not persisted: %d records, torn %d", len(recs2), stats2.TornBytes)
	}
}

func TestCorruptChecksumDetected(t *testing.T) {
	fs, l := openEmpty(t)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 8)); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	// Flip one payload byte of the second record: replay must stop after
	// the first record rather than deliver a corrupted payload.
	data := fs.Bytes("wal.log")
	frame := recordHeader + 8
	data[frame+recordHeader+3] ^= 0xFF
	fs.SetBytes("wal.log", data)
	_, recs, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records past a bad checksum, want 1", len(recs))
	}
	if stats.TornBytes != 2*frame {
		t.Fatalf("torn bytes = %d, want %d", stats.TornBytes, 2*frame)
	}
}

func TestOpenStatsClassifiesTornVersusCorrupt(t *testing.T) {
	fs, l := openEmpty(t)
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	clean := append([]byte(nil), fs.Bytes("wal.log")...)
	frame := recordHeader + 2

	// Clean shutdown: the whole file is the intact prefix.
	_, _, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedAt != len(clean) || stats.CorruptFrames != 0 {
		t.Fatalf("clean log: stats %+v, want TruncatedAt=%d CorruptFrames=0", stats, len(clean))
	}

	// Torn final append: bytes discarded, but no complete frame among them.
	fs.SetBytes("wal.log", clean[:len(clean)-1])
	_, _, stats, err = Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedAt != 3*frame || stats.CorruptFrames != 0 {
		t.Fatalf("torn tail: stats %+v, want TruncatedAt=%d CorruptFrames=0", stats, 3*frame)
	}

	// Bit rot mid-log: the complete frames past the cut count as corrupt.
	rotted := append([]byte(nil), clean...)
	rotted[frame+recordHeader] ^= 0xFF // second record's payload
	fs.SetBytes("wal.log", rotted)
	_, recs, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || stats.TruncatedAt != frame || stats.CorruptFrames != 3 {
		t.Fatalf("rotted log: %d records, stats %+v, want TruncatedAt=%d CorruptFrames=3",
			len(recs), stats, frame)
	}
}

func TestOversizedLengthFieldRejected(t *testing.T) {
	fs := NewMemFS()
	// A frame claiming a huge payload must not drive a huge allocation.
	frame := make([]byte, recordHeader)
	frame[0] = 0xFF
	frame[1] = 0xFF
	frame[2] = 0xFF
	frame[3] = 0x7F
	fs.SetBytes("wal.log", frame)
	_, recs, stats, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.TornBytes != recordHeader {
		t.Fatalf("oversized frame parsed: %d records, torn %d", len(recs), stats.TornBytes)
	}
}

func TestTruncateKeepsTail(t *testing.T) {
	fs, l := openEmpty(t)
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	if err := l.Truncate(14); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("len after truncate = %d, want 5", l.Len())
	}
	// Appends continue with contiguous LSNs and both survive replay.
	lsn, err := l.Append([]byte{99})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 20 {
		t.Fatalf("post-truncate lsn = %d, want 20", lsn)
	}
	l.Sync()
	_, recs, _, err := Open(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || recs[0].LSN != 15 || recs[5].LSN != 20 {
		t.Fatalf("replay after truncate: %d records, first %d", len(recs), recs[0].LSN)
	}
}

func TestFaultFSTearsTrippingWrite(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultFS(mem)
	l, _, _, err := Open(faulty, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	faulty.SetTrip(0) // next op (the append's write) tears
	if _, err := l.Append([]byte("bbbb")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append error = %v, want injected", err)
	}
	if _, err := l.Append([]byte("cccc")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip append error = %v, want injected", err)
	}
	mem.Crash()
	_, recs, _, err := Open(mem, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "aaaa" {
		t.Fatalf("recovered %d records, want the synced one", len(recs))
	}
}

func TestFaultFSOpCountProbe(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultFS(mem)
	l, _, _, err := Open(faulty, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	before := faulty.Ops()
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Sync()
	if got := faulty.Ops() - before; got != 2 { // one write + one sync
		t.Fatalf("ops for append+sync = %d, want 2", got)
	}
	if faulty.Tripped() {
		t.Fatal("probe run tripped")
	}
}

// TestFaultFSNameFilter scopes the injector to one file and checks that
// operations on other names pass through uncounted and unfailed — the
// single-bad-shard model — while the filtered name both counts toward the
// trip and fails after it.
func TestFaultFSNameFilter(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultFS(mem)
	faulty.SetNameFilter(func(name string) bool { return name == "bad.log" })

	good, _, _, err := Open(faulty, "good.log")
	if err != nil {
		t.Fatal(err)
	}
	bad, _, _, err := Open(faulty, "bad.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Append([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if err := bad.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := faulty.Ops(); got != 3 { // only bad.log's open+write+sync counted
		t.Fatalf("filtered op count = %d, want 3", got)
	}

	faulty.SetTrip(0) // the very next bad.log op fails
	for i := 0; i < 3; i++ {
		if _, err := good.Append([]byte("gg")); err != nil {
			t.Fatalf("out-of-scope append %d failed: %v", i, err)
		}
		if err := good.Sync(); err != nil {
			t.Fatalf("out-of-scope sync %d failed: %v", i, err)
		}
	}
	if faulty.Tripped() {
		t.Fatal("out-of-scope traffic tripped the injector")
	}
	if _, err := bad.Append([]byte("b1")); !errors.Is(err, ErrInjected) {
		t.Fatalf("in-scope append error = %v, want injected", err)
	}
	if _, err := good.Append([]byte("gg")); err != nil {
		t.Fatalf("append on healthy file after trip failed: %v", err)
	}
	if err := good.Sync(); err != nil {
		t.Fatal(err)
	}
	// A rename is in scope when either of its names is.
	if err := faulty.Rename("other.tmp", "bad.log"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename into scope error = %v, want injected", err)
	}

	mem.Crash()
	_, recs, _, err := Open(mem, "good.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("healthy log recovered %d records, want 4", len(recs))
	}
}

func TestDirFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, _, err := Open(fsys, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := func() error { // reopen and truncate
		l2, recs, _, err := Open(fsys, "wal.log")
		if err != nil {
			return err
		}
		if len(recs) != 10 {
			return fmt.Errorf("replayed %d records, want 10", len(recs))
		}
		if err := l2.Truncate(7); err != nil {
			return err
		}
		return l2.Close()
	}(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := Open(fsys, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 8 {
		t.Fatalf("after dir truncate: %d records, first LSN %v", len(recs), recs)
	}
}

// TestReplayedPayloadsAliasOnlyThemselves replays a log from a real
// directory, which Open reads in one allocation (the file reports its
// size), and grows every payload by more than a frame header: each is
// capped at its own length, so no append reaches the next record.
func TestReplayedPayloadsAliasOnlyThemselves(t *testing.T) {
	fsys, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, _, _, err := Open(fsys, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, stats, err := Open(fsys, "wal.log")
	if err != nil || len(recs) != 500 || stats.TornBytes != 0 {
		t.Fatalf("replayed %d records, torn %d: %v", len(recs), stats.TornBytes, err)
	}
	suffix := bytes.Repeat([]byte{'x'}, recordHeader+4)
	for i := range recs {
		recs[i].Payload = append(recs[i].Payload, suffix...)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("op-%d%s", i, suffix); string(r.Payload) != want {
			t.Fatalf("record %d reads %q after the appends, want %q", i, r.Payload, want)
		}
	}
}
