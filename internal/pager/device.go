package pager

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Device is the storage a blob store sits on: a growable array of
// fixed-size pages with a durability barrier. Disk (in-memory, counted)
// and FileDisk (one file on a real file system) implement it, and
// FaultDevice wraps any implementation with deterministic fault injection.
//
// Calls are never concurrent: a Store makes every call on the goroutine
// that called it, and a durable store — whose open, create and cut fan
// their CPU work out over every core — keeps its device I/O on the one
// goroutine that is opening it or holds its checkpoint lock.
type Device interface {
	// Allocate extends the device by one page and returns its id. The new
	// page reads as zeroes.
	Allocate() PageID
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Read copies page id into buf (len >= PageSize).
	Read(id PageID, buf []byte) error
	// Write copies buf into page id. The write is not durable until the
	// next successful Sync. A device may buffer it, so a failure to store
	// it can surface at a later call instead — at the latest at Sync,
	// which then fails: no Sync succeeds over a lost write.
	Write(id PageID, buf []byte) error
	// Sync makes all preceding writes durable.
	Sync() error
}

// Sync is a no-op: the in-memory disk has no volatility to flush.
func (d *Disk) Sync() error { return nil }

// FileDisk is a Device stored as one flat file: page i lives at byte
// offset i*PageSize. Allocation only grows the logical page count; a page
// materializes in the file on its first write, and reads past the current
// end of file return zeroes, so Allocate itself cannot fail.
//
// Full-page writes to consecutive page ids are gathered into a run of up to
// runPages pages and handed to the file with one write, whose writeback
// then starts without being waited for. Any other write, and every Read,
// Sync and Close, hands the run over first. A failed hand-over is sticky:
// the call that triggered it and every later Read, Write and Sync return
// its error, so a write error surfaces at a later call — at the latest at
// Sync.
//
// Reads go ahead on sequential access: a Read of the page after the
// previous one fills a window of up to runPages pages from it with one file
// read, and later Reads inside the window copy from it. The window borrows
// the run buffer's array, which is empty whenever Read runs because Read
// hands the run over first; every Write drops the window, as the run it
// grows overwrites it. Any other Read reads its one page from the file.
type FileDisk struct {
	f        *os.File
	pages    int
	run      []byte // buffered full pages, from runStart on
	runStart PageID
	err      error // the first failed hand-over

	last     PageID // the page the previous Read asked for
	winStart PageID // the read-ahead window holds winN pages from winStart,
	winN     int    // in run's array; 0 when it holds none
	reads    int64  // file reads Read made
}

// runPages is the most pages one hand-over writes (256 KiB).
const runPages = 64

// OpenFileDisk opens (or creates) the page file at path. An existing
// file's page count is its size rounded up to whole pages.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	pages := int((st.Size() + PageSize - 1) / PageSize)
	return &FileDisk{f: f, pages: pages, run: make([]byte, 0, runPages*PageSize), last: NilPage - 1}, nil // no first read is sequential
}

// Allocate extends the device by one zero page.
func (d *FileDisk) Allocate() PageID {
	d.pages++
	return PageID(d.pages - 1)
}

// NumPages returns the number of allocated pages.
func (d *FileDisk) NumPages() int { return d.pages }

// flush hands the buffered run to the file and starts its writeback.
func (d *FileDisk) flush() error {
	if d.err != nil || len(d.run) == 0 {
		return d.err
	}
	off, n := int64(d.runStart)*PageSize, int64(len(d.run))
	_, d.err = d.f.WriteAt(d.run, off)
	d.run = d.run[:0]
	if d.err == nil {
		writeBehind(d.f, off, n)
	}
	return d.err
}

// Read copies page id into buf, zero-filling any part past the file's
// current end. A page inside the read-ahead window is copied from it; the
// page after the previous one refills the window from id on.
func (d *FileDisk) Read(id PageID, buf []byte) error {
	if int(id) >= d.pages {
		return fmt.Errorf("pager: read of unallocated page %d", id)
	}
	if err := d.flush(); err != nil {
		return err
	}
	sequential := id == d.last+1
	d.last = id
	if i := int(id - d.winStart); id >= d.winStart && i < d.winN {
		copy(buf, d.run[i*PageSize:(i+1)*PageSize])
		return nil
	}
	dst := buf[:PageSize]
	if sequential {
		d.winStart, d.winN = id, min(runPages, d.pages-int(id))
		dst = d.run[:d.winN*PageSize]
	}
	d.reads++
	n, err := d.f.ReadAt(dst, int64(id)*PageSize)
	if err != nil && err != io.EOF {
		d.winN = 0
		return err
	}
	clear(dst[n:])
	copy(buf, dst[:PageSize]) // onto itself unless dst is the window
	return nil
}

// Write copies buf into page id. A full page that extends the buffered run
// joins it; a shorter buf is written in place after the run is handed over.
func (d *FileDisk) Write(id PageID, buf []byte) error {
	if int(id) >= d.pages {
		return fmt.Errorf("pager: write of unallocated page %d", id)
	}
	d.winN = 0
	if len(buf) < PageSize {
		if err := d.flush(); err != nil {
			return err
		}
		_, err := d.f.WriteAt(buf, int64(id)*PageSize)
		return err
	}
	if n := len(d.run) / PageSize; n == 0 || id != d.runStart+PageID(n) {
		if err := d.flush(); err != nil {
			return err
		}
		d.runStart = id
	}
	d.run = append(d.run, buf[:PageSize]...)
	if len(d.run) == cap(d.run) {
		return d.flush()
	}
	return nil
}

// Sync hands over the buffered run and fsyncs the page file.
func (d *FileDisk) Sync() error {
	if err := d.flush(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close releases the file handle after a final sync.
func (d *FileDisk) Close() error {
	err := d.Sync()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrInjected is the error FaultDevice operations return once their trip
// point has been reached.
var ErrInjected = errors.New("pager: injected fault")

// FaultDevice wraps a Device with a deterministic fault injector, the
// page-store twin of the WAL's FaultFS. Write and Sync operations are
// counted; once the count passes the configured trip point the tripping
// operation and everything after it fail with ErrInjected — a tripping
// Write lands only the first half of the page (a torn page write). Reads
// have an independent trip counter so error paths on the read side (for
// example a checkpoint load hitting a bad sector) can be exercised
// without disturbing writes.
type FaultDevice struct {
	inner Device

	mu       sync.Mutex
	ops      int
	tripAt   int // fail the write-path op that would exceed this; <0 = never
	tripped  bool
	reads    int
	readTrip int // fail the read that would exceed this; <0 = never
	readDead bool
}

// NewFaultDevice wraps inner with no trips configured.
func NewFaultDevice(inner Device) *FaultDevice {
	return &FaultDevice{inner: inner, tripAt: -1, readTrip: -1}
}

// SetTrip arms the write-path injector: the (n+1)-th Write or Sync from
// now on fails, as does everything after it. SetTrip(-1) disarms. The
// operation counter is reset.
func (d *FaultDevice) SetTrip(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops = 0
	d.tripAt = n
	d.tripped = false
}

// SetReadTrip arms the read-path injector: the (n+1)-th Read from now on
// fails, as does every later read. SetReadTrip(-1) disarms.
func (d *FaultDevice) SetReadTrip(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads = 0
	d.readTrip = n
	d.readDead = false
}

// Ops returns the number of write-path operations observed since the last
// SetTrip (or construction).
func (d *FaultDevice) Ops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Tripped reports whether the write-path injector has fired.
func (d *FaultDevice) Tripped() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tripped
}

// step counts one write-path operation and classifies it, mirroring
// FaultFS.
func (d *FaultDevice) step() stepKind {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tripped {
		return stepDead
	}
	if d.tripAt >= 0 && d.ops >= d.tripAt {
		d.tripped = true
		return stepTrip
	}
	d.ops++
	return stepOK
}

// stepKind classifies one injected operation.
type stepKind int

const (
	stepOK   stepKind = iota // proceed normally
	stepTrip                 // this operation fires the fault
	stepDead                 // a previous operation already fired it
)

// Allocate passes through: growing the logical page array is a pure
// in-memory bookkeeping step, so it is not a crash point.
func (d *FaultDevice) Allocate() PageID { return d.inner.Allocate() }

// NumPages passes through.
func (d *FaultDevice) NumPages() int { return d.inner.NumPages() }

// Read fails with ErrInjected once the read trip fires; otherwise it
// passes through.
func (d *FaultDevice) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	fail := d.readDead
	if !fail && d.readTrip >= 0 && d.reads >= d.readTrip {
		d.readDead = true
		fail = true
	}
	if !fail {
		d.reads++
	}
	d.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return d.inner.Read(id, buf)
}

// Write writes through the injector; the tripping write lands only the
// first half of the page before failing, and writes after the trip land
// nothing at all.
func (d *FaultDevice) Write(id PageID, buf []byte) error {
	switch d.step() {
	case stepTrip:
		// Disk.Write copies min(len(buf), PageSize) bytes, so a half
		// buffer leaves the page's second half at its previous content —
		// a torn page.
		d.inner.Write(id, buf[:PageSize/2])
		return ErrInjected
	case stepDead:
		return ErrInjected
	}
	return d.inner.Write(id, buf)
}

// Sync fails with ErrInjected at or after the trip point.
func (d *FaultDevice) Sync() error {
	if d.step() != stepOK {
		return ErrInjected
	}
	return d.inner.Sync()
}
