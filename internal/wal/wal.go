package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sync/atomic"

	"errors"
)

// Record frame layout, little-endian:
//
//	u32 payload length | u32 CRC-32C | u64 LSN | payload bytes
//
// The CRC covers the LSN and the payload, so a frame whose length field
// survived but whose body was torn is rejected, and a stale frame left
// behind by a shorter rewrite cannot masquerade as current (its LSN is
// checked for monotonicity as well).
const recordHeader = 4 + 4 + 8

// maxRecordSize bounds a single record's payload. It exists to keep a
// corrupted length field from driving a multi-gigabyte allocation during
// replay; real records (one logged write each) are a few dozen bytes.
const maxRecordSize = 1 << 20

// crcTable is the Castagnoli table used for all record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed log entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// OpenStats describes what Open found in an existing log, letting callers
// distinguish a clean shutdown (nothing discarded) from a crash's torn
// tail (an incomplete final frame) from actual corruption (complete
// frames that fail their checksum or break LSN monotonicity).
type OpenStats struct {
	// Records is the number of intact records replayed.
	Records int
	// TornBytes is the number of trailing bytes discarded because they did
	// not form an intact record (torn tail after a crash). Zero for a
	// clean log.
	TornBytes int
	// TruncatedAt is the byte offset the log was cut at: the length of the
	// intact record prefix. Equal to the file size for a clean log.
	TruncatedAt int
	// CorruptFrames counts structurally complete frames inside the
	// discarded tail that fail their checksum or LSN monotonicity — a torn
	// final append leaves zero of these (its frame is incomplete), so a
	// non-zero count is evidence of corruption rather than a crash.
	CorruptFrames int
}

// Log is an append-only record log. It is not safe for concurrent use;
// the owning facade serializes writers. While a barrier of its Group is in
// flight, appends are held, so no File is used from two goroutines.
type Log struct {
	fs      FS
	name    string
	f       File
	nextLSN uint64
	records int // records appended, held ones included

	group    *Group
	unsynced int        // ops committed since the last barrier began
	buf      []byte     // framed records not yet written
	spare    []byte     // the other buffer; the in-flight barrier writes from it
	done     chan error // the in-flight barrier's result; nil when none is
}

// Group is what the logs of one store share: the group-commit batch, their
// background barriers in flight, and the sticky poison — the first failure
// one of them (or the owner) recorded. Once a failure is recorded, the
// tail of some log is unknown (a torn frame may sit where the next append
// would land; a failed fsync leaves everything since the previous barrier
// in doubt), so no log of the group acknowledges anything again.
type Group struct {
	batch    atomic.Int64 // ops per barrier, per log; below 2, every op syncs
	inflight atomic.Int32
	failed   atomic.Pointer[error]
}

// SetBatch sets the group-commit batch: each log of g syncs every n (or
// more) of its committed ops instead of every op.
func (g *Group) SetBatch(n int) { g.batch.Store(int64(n)) }

// Fail records err unless a failure is recorded already.
func (g *Group) Fail(err error) { g.failed.CompareAndSwap(nil, &err) }

// Err returns the first recorded failure, nil when none.
func (g *Group) Err() error {
	if p := g.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Share makes l one of g's logs. Until then it is alone in a group of its
// own.
func (l *Log) Share(g *Group) { l.group = g }

// Err returns the failure recorded in the log's group, nil when none.
func (l *Log) Err() error { return l.group.Err() }

// Open opens (or creates) the log called name inside fsys, replaying every
// intact record. A torn tail — trailing bytes that do not parse into a
// record with a valid checksum and a monotonically increasing LSN — is cut
// off and the file is repaired to the intact prefix before the log accepts
// appends, so a crash mid-append never leaves permanent garbage. The
// replayed records (oldest first) and repair statistics are returned along
// with the ready-to-append log.
func Open(fsys FS, name string) (*Log, []Record, OpenStats, error) {
	var stats OpenStats
	data, err := readAll(fsys, name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, stats, fmt.Errorf("wal: read %s: %w", name, err)
	}
	records, consumed := parseRecords(data)
	stats.Records = len(records)
	stats.TornBytes = len(data) - consumed
	stats.TruncatedAt = consumed
	stats.CorruptFrames = countFrames(data[consumed:])
	if stats.TornBytes > 0 {
		// Repair: rewrite the intact prefix and atomically swap it in, so
		// the torn bytes cannot resurface.
		if err := rewrite(fsys, name, data[:consumed]); err != nil {
			return nil, nil, stats, fmt.Errorf("wal: repair %s: %w", name, err)
		}
	}
	f, err := fsys.Append(name)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("wal: open %s: %w", name, err)
	}
	l := &Log{fs: fsys, name: name, f: f, records: len(records), group: new(Group)}
	if n := len(records); n > 0 {
		l.nextLSN = records[n-1].LSN + 1
	}
	return l, records, stats, nil
}

// readAll returns the full content of name: in one allocation when the
// file reports its size, the spare bytes seeing the end of file.
func readAll(fsys FS, name string) ([]byte, error) {
	r, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var size int64
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if st, err := f.Stat(); err == nil {
			size = st.Size()
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err = buf.ReadFrom(r)
	return buf.Bytes(), err
}

// parseRecords decodes the longest intact record prefix of data, returning
// the records and the number of bytes they occupy. Parsing stops at the
// first frame that is truncated, oversized, fails its checksum, or breaks
// LSN monotonicity. Every payload aliases data.
func parseRecords(data []byte) ([]Record, int) {
	records := make([]Record, 0, countFrames(data))
	at := 0
	var prevLSN uint64
	for len(data)-at >= recordHeader {
		n := int(binary.LittleEndian.Uint32(data[at:]))
		if n > maxRecordSize || at+recordHeader+n > len(data) {
			break
		}
		crc := binary.LittleEndian.Uint32(data[at+4:])
		body := data[at+8 : at+recordHeader+n] // LSN + payload
		if crc32.Checksum(body, crcTable) != crc {
			break
		}
		lsn := binary.LittleEndian.Uint64(body)
		if len(records) > 0 && lsn != prevLSN+1 {
			break
		}
		records = append(records, Record{
			LSN:     lsn,
			Payload: body[8:len(body):len(body)],
		})
		prevLSN = lsn
		at += recordHeader + n
	}
	return records, at
}

// countFrames counts the structurally complete frames — a sane length
// field with the whole body present — at the front of tail: over the tail
// parseRecords discarded, those it rejected (bad checksum or broken LSN
// monotonicity). The walk stops at the first incomplete or unparseable
// frame: whatever follows is indistinguishable from a torn append.
func countFrames(tail []byte) int {
	frames := 0
	at := 0
	for len(tail)-at >= recordHeader {
		n := int(binary.LittleEndian.Uint32(tail[at:]))
		if n > maxRecordSize || at+recordHeader+n > len(tail) {
			break
		}
		frames++
		at += recordHeader + n
	}
	return frames
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, lsn uint64, payload []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], lsn)
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	body := buf[len(buf)-len(payload)-8:]
	binary.LittleEndian.PutUint32(buf[len(buf)-len(payload)-12:], crc32.Checksum(body, crcTable))
	return buf
}

// rewrite atomically replaces name's content with data (write a sibling,
// sync, rename).
func rewrite(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, name)
}

// Append frames one record with the next LSN into the log's buffer, written
// at once (held records first) unless a barrier of its Group is in flight,
// and returns that LSN. A failed append may leave a torn frame at the
// file's tail; the next Open cuts it off, so the LSN is not advanced. The
// failure is recorded in the group, and a group that recorded one refuses
// every later append.
func (l *Log) Append(payload []byte) (uint64, error) {
	if err := l.group.Err(); err != nil {
		return 0, err
	}
	if len(payload) > maxRecordSize {
		return 0, l.fail(fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), maxRecordSize))
	}
	lsn := l.nextLSN
	l.buf = appendFrame(l.buf, lsn, payload)
	if l.group.inflight.Load() == 0 {
		if err := l.flush(); err != nil {
			return 0, l.fail(err)
		}
	}
	l.nextLSN = lsn + 1
	l.records++
	return lsn, nil
}

// fail records err, when there is one, in the log's group and returns it.
func (l *Log) fail(err error) error {
	if err != nil {
		l.group.Fail(err)
	}
	return err
}

// flush waits for the log's barrier, then writes the held records with
// one Write. After a failure they are dropped: nothing is acknowledged.
func (l *Log) flush() error {
	err := l.wait()
	if err == nil && len(l.buf) > 0 {
		_, err = l.f.Write(l.buf)
	}
	l.buf = l.buf[:0]
	return err
}

// wait waits for the log's background barrier, if any, and returns its
// error.
func (l *Log) wait() error {
	if l.done == nil {
		return nil
	}
	err := <-l.done
	l.done = nil
	return err
}

// Commit counts one appended-and-applied op against the group's batch.
// The batch's n-th op since the last barrier began syncs: with a batch of
// one, on the caller (one Write, one fsync); with a larger one, in the
// background (SyncBehind), the batch growing while the log's last barrier
// is still in flight. A group that recorded a failure returns it.
func (l *Log) Commit() error {
	if err := l.group.Err(); err != nil {
		return err
	}
	l.unsynced++
	n := l.group.batch.Load()
	if int64(l.unsynced) < n {
		return nil
	}
	if n <= 1 {
		return l.Barrier()
	}
	started, err := l.SyncBehind() // a failed barrier is recorded already
	if started {
		l.unsynced = 0
	}
	return err
}

// Barrier is the owner's group-commit barrier: it waits for the log's
// background barrier, then syncs if ops were committed since that one
// began. After it returns nil, every committed op survives a crash. A
// group that recorded a failure returns it and syncs nothing.
func (l *Log) Barrier() error {
	err := l.group.Err()
	if err == nil {
		err = l.wait() // a failed barrier is recorded already
	}
	if err == nil && l.unsynced > 0 {
		err = l.Sync()
	}
	if err == nil {
		l.unsynced = 0
	}
	return err
}

// Sync writes the held records and fsyncs: after it returns nil, every
// record appended so far survives a crash. A failed background barrier is
// returned without a new fsync. A failure is recorded in the group.
func (l *Log) Sync() error { return l.fail(l.sync()) }

func (l *Log) sync() error {
	if err := l.flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// SyncBehind starts a background barrier (one Write of the held records,
// one fsync) and returns. While the log's last one is in flight it starts
// nothing and reports false; if that one failed, it returns its error.
func (l *Log) SyncBehind() (bool, error) {
	if l.done != nil && len(l.done) == 0 {
		return false, nil
	}
	if err := l.wait(); err != nil {
		return false, err
	}
	l.buf, l.spare, l.done = l.spare[:0], l.buf, make(chan error, 1)
	l.group.inflight.Add(1)
	go runBarrier(l.f, l.spare, l.group, l.done)
	return true, nil
}

// runBarrier runs a background barrier and records its failure in the
// group. The count drops after the result is sent, so an append that sees
// none in flight may reuse file and buffer.
func runBarrier(f File, buf []byte, g *Group, done chan<- error) {
	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		g.Fail(err)
	}
	done <- err
	g.inflight.Add(-1)
}

// NextLSN returns the LSN the next append will use.
func (l *Log) NextLSN() uint64 { return l.nextLSN }

// SetNextLSN raises the next append LSN to at least n. A truncated-empty
// log reopens with nextLSN 0, but its dropped records' LSNs are still
// spoken for by the checkpoint that truncated them; the owner calls this
// with the checkpoint's replay cursor so fresh appends never reuse an LSN
// the replay filter would skip.
func (l *Log) SetNextLSN(n uint64) {
	l.nextLSN = max(l.nextLSN, n)
}

// Len returns the number of records in the log, held ones included.
func (l *Log) Len() int { return l.records }

// Truncate drops every record with LSN <= upTo: the surviving tail is
// rewritten to a sibling file, synced, and atomically renamed over the
// log. The caller must guarantee the dropped prefix is durable elsewhere
// (a committed checkpoint) before calling. The old file is read once, but
// only the surviving tail is rewritten and synced. On success the log
// continues appending after the tail; on failure the old file remains
// intact and the log stays usable — unless writing the held records
// failed: they are dropped, so the failure is recorded in the group.
func (l *Log) Truncate(upTo uint64) error {
	if err := l.fail(l.flush()); err != nil {
		return fmt.Errorf("wal: truncate flush: %w", err)
	}
	data, err := readAll(l.fs, l.name)
	if err != nil {
		return fmt.Errorf("wal: truncate read: %w", err)
	}
	// LSNs ascend, so the kept records are the intact frames from at on.
	records, end := parseRecords(data)
	at, kept := 0, len(records)
	for _, r := range records {
		if r.LSN > upTo {
			break
		}
		at, kept = at+recordHeader+len(r.Payload), kept-1
	}
	if kept == len(records) {
		return nil // nothing to drop
	}
	if err := rewrite(l.fs, l.name, data[at:end]); err != nil {
		return fmt.Errorf("wal: truncate rewrite: %w", err)
	}
	// Swap the append handle to the new file. The old handle points at the
	// renamed-over inode; close it and reopen.
	l.f.Close()
	f, err := l.fs.Append(l.name)
	if err != nil {
		return fmt.Errorf("wal: truncate reopen: %w", err)
	}
	l.f = f
	l.records = kept
	return nil
}

// Close syncs and releases the log's file handle; unlike Sync, its
// failure is not recorded in the group. The log must not be used
// afterwards.
func (l *Log) Close() error {
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
