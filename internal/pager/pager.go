// Package pager is the page storage under the durable stores' checkpoints.
//
// A Device is a growable array of fixed-size pages with a durability
// barrier: Disk keeps them in memory and counts every read and write (the
// tests' and the benchmark's device), FileDisk keeps them in one file of a
// real file system, and FaultDevice wraps either with deterministic fault
// injection for the crash matrices. Store spreads variable-length blobs —
// a checkpoint's encoded chunks — over chains of checksummed pages,
// shadow-paged, and commits a checkpoint with one alternating superblock
// write (see store.go).
//
// PageID is the storage-level notion of page identity: stable for the
// lifetime of the page and independent of where the page sits in any
// index.
package pager

import "fmt"

// PageSize is the size of a disk page in bytes.
const PageSize = 4096

// PageID identifies a disk page.
type PageID uint32

// Disk is a growable array of pages with access accounting.
type Disk struct {
	pages  [][]byte
	reads  int64
	writes int64
}

// NewDisk returns an empty disk.
func NewDisk() *Disk { return &Disk{} }

// Allocate appends a zeroed page and returns its id.
func (d *Disk) Allocate() PageID {
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1)
}

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int { return len(d.pages) }

// Read copies page id into buf (len >= PageSize) and counts one read.
func (d *Disk) Read(id PageID, buf []byte) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("pager: read of unallocated page %d", id)
	}
	d.reads++
	copy(buf, d.pages[id])
	return nil
}

// Write copies buf into page id and counts one write.
func (d *Disk) Write(id PageID, buf []byte) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("pager: write of unallocated page %d", id)
	}
	d.writes++
	copy(d.pages[id], buf)
	return nil
}

// Reads returns the number of page reads served by the disk.
func (d *Disk) Reads() int64 { return d.reads }

// Writes returns the number of page writes received by the disk.
func (d *Disk) Writes() int64 { return d.writes }
