package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
)

// This file implements the checkpoint side of the durability protocol: a
// blob store that spreads variable-length byte blobs over chains of
// checksummed pages, plus a dual-superblock commit record. The layout is
// crash-safe by construction:
//
//   - Blobs are written shadow-paged: a new checkpoint writes its blobs
//     into fresh (or long-free) pages, never overwriting pages the
//     previous checkpoint still references, so a crash mid-checkpoint
//     leaves the previous checkpoint fully intact.
//   - The superblock alternates between pages 0 and 1 by epoch parity.
//     Committing a checkpoint is a single page write (magic + CRC +
//     epoch) followed by a sync; a torn superblock write fails its CRC
//     and recovery falls back to the other, older superblock.
//   - Pages released by checkpoint N (the blobs N replaced) become
//     reusable only after N has committed, so the previous checkpoint's
//     pages are never scribbled while it is still the recovery target.
//
// Every blob page carries a CRC-32C over its header and payload, so a
// corrupted or stale page is detected at read time instead of being
// decoded into garbage.

// NilPage terminates a blob chain.
const NilPage = ^PageID(0)

// unknownPage marks a chain-memo slot the store has no link for.
const unknownPage = NilPage - 1

// blobHeader is the per-page overhead: u32 CRC | u32 next | u32 length.
const blobHeader = 12

// BlobPayload is the usable bytes per blob page.
const BlobPayload = PageSize - blobHeader

// superMagic marks a valid superblock ("FITD").
const superMagic = 0x46495444

// storeCRC is the Castagnoli table shared by blob pages and superblocks.
var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// Super is the checkpoint commit record.
type Super struct {
	// Epoch increments with every committed checkpoint; the superblock
	// with the higher epoch (of the two slots) is current.
	Epoch uint64
	// Manifest is the head page of the checkpoint manifest blob.
	Manifest PageID
	// ReplayFrom is the first WAL LSN not folded into this checkpoint:
	// recovery replays records with LSN >= ReplayFrom.
	ReplayFrom uint64
}

// superPages recycles the page buffer of superblock I/O, which takes a
// bare Device and so cannot borrow a Store's scratch.
var superPages = sync.Pool{New: func() any { return new([PageSize]byte) }}

// WriteSuper commits s into the superblock slot for its epoch parity and
// syncs the device. The previous superblock (other slot) is untouched, so
// a torn write here is recoverable.
func WriteSuper(dev Device, s Super) error {
	for dev.NumPages() < 2 {
		dev.Allocate()
	}
	page := superPages.Get().(*[PageSize]byte)
	defer superPages.Put(page)
	buf := page[:]
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	binary.LittleEndian.PutUint64(buf[8:], s.Epoch)
	binary.LittleEndian.PutUint32(buf[16:], uint32(s.Manifest))
	binary.LittleEndian.PutUint64(buf[24:], s.ReplayFrom)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:32], storeCRC))
	if err := dev.Write(PageID(s.Epoch%2), buf); err != nil {
		return err
	}
	return dev.Sync()
}

// ReadSuperAt reads and validates one superblock slot (0 or 1). ok is
// false when the slot holds no valid superblock — never written, torn, or
// corrupted; the error reports only device read failures. Integrity tools
// use it to check both slots individually where ReadSuper would silently
// fall back to the surviving one.
func ReadSuperAt(dev Device, slot PageID) (Super, bool, error) {
	if int(slot) >= dev.NumPages() {
		return Super{}, false, nil
	}
	page := superPages.Get().(*[PageSize]byte)
	defer superPages.Put(page)
	buf := page[:]
	if err := dev.Read(slot, buf); err != nil {
		return Super{}, false, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != superMagic {
		return Super{}, false, nil
	}
	if binary.LittleEndian.Uint32(buf[4:]) != crc32.Checksum(buf[8:32], storeCRC) {
		return Super{}, false, nil
	}
	return Super{
		Epoch:      binary.LittleEndian.Uint64(buf[8:]),
		Manifest:   PageID(binary.LittleEndian.Uint32(buf[16:])),
		ReplayFrom: binary.LittleEndian.Uint64(buf[24:]),
	}, true, nil
}

// ReadSuper returns the newest valid superblock. ok is false when neither
// slot holds one (an empty or never-committed device, or both slots
// corrupt — in every case there is no checkpoint to load).
func ReadSuper(dev Device) (s Super, ok bool, err error) {
	if dev.NumPages() < 2 {
		return Super{}, false, nil
	}
	for slot := PageID(0); slot < 2; slot++ {
		cand, valid, rerr := ReadSuperAt(dev, slot)
		if rerr != nil {
			return Super{}, false, rerr
		}
		if valid && (!ok || cand.Epoch > s.Epoch) {
			s, ok = cand, true
		}
	}
	return s, ok, nil
}

// Store writes and reads blobs over a Device, shadow-paged as described
// above. It is not safe for concurrent use, and it makes every Device call
// on the goroutine that called it; the checkpointer serializes access.
type Store struct {
	dev     Device
	free    []PageID // reusable now, descending: alloc pops the lowest
	pending []PageID // freed by the in-flight checkpoint; reusable after Commit
	scratch []byte   // the one page buffer of chain walks and Put (Store is single-threaded)
	ids     []PageID // Put's page list, reused across blobs

	// next is the chain memo: next[id] is the page that followed id in the
	// live blob it was last written (Put) or read (GetChain) as part of —
	// NilPage at the chain's end, unknownPage (also: past the slice's end)
	// where the store holds no link. It lets Free release a blob without
	// reading it back, for 4 bytes per store page.
	next   []PageID
	staged []PageID // heads Put since the last Commit or Rollback
}

// NewStore returns a blob store over dev, reserving the superblock pages.
// Its freelist starts empty; after recovery, call RebuildFree with the
// pages reachable from the live checkpoint.
func NewStore(dev Device) *Store {
	for dev.NumPages() < 2 {
		dev.Allocate()
	}
	return &Store{dev: dev, scratch: make([]byte, PageSize)}
}

// Device returns the underlying device (for superblock I/O and counters).
func (s *Store) Device() Device { return s.dev }

// FreePages returns the number of immediately reusable pages.
func (s *Store) FreePages() int { return len(s.free) }

// alloc returns the lowest free page, extending the device when none is
// free.
func (s *Store) alloc() PageID {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	return s.dev.Allocate()
}

// link memoizes ids as one blob's chain, in order.
func (s *Store) link(ids []PageID) {
	for i, id := range ids {
		for int(id) >= len(s.next) {
			s.next = append(s.next, unknownPage)
		}
		s.next[id] = NilPage
		if i > 0 {
			s.next[ids[i-1]] = id
		}
	}
}

// forget drops the memo's links out of ids.
func (s *Store) forget(ids []PageID) {
	for _, id := range ids {
		if int(id) < len(s.next) {
			s.next[id] = unknownPage
		}
	}
}

// known appends the memoized chain from head to ids. ok is false when the
// memo runs out before the chain's end.
func (s *Store) known(head PageID, ids []PageID) (_ []PageID, ok bool) {
	for id := head; id != NilPage; id = s.next[id] {
		if int(id) >= len(s.next) || s.next[id] == unknownPage {
			return ids, false
		}
		ids = append(ids, id)
	}
	return ids, true
}

// Put writes data as a chain of checksummed pages and returns the head
// page id, remembering the chain so that a later Free of the head reads
// nothing. The pages are written but not synced; the caller syncs (via
// WriteSuper) once the whole checkpoint is staged. Page list and page
// buffer are the store's own: Put allocates nothing.
func (s *Store) Put(data []byte) (PageID, error) {
	n := max(1, (len(data)+BlobPayload-1)/BlobPayload)
	ids := s.ids[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, s.alloc())
	}
	s.ids = ids
	buf := s.scratch
	for i, id := range ids {
		part := data[i*BlobPayload : min(len(data), (i+1)*BlobPayload)]
		next := NilPage
		if i+1 < n {
			next = ids[i+1]
		}
		binary.LittleEndian.PutUint32(buf[4:], uint32(next))
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(part)))
		clear(buf[blobHeader+copy(buf[blobHeader:], part):])
		binary.LittleEndian.PutUint32(buf[0:], crc32.Checksum(buf[4:], storeCRC))
		if err := s.dev.Write(id, buf); err != nil {
			return NilPage, err
		}
	}
	s.link(ids)
	s.staged = append(s.staged, ids[0])
	return ids[0], nil
}

// Get reads the blob chained from head, verifying every page's checksum.
func (s *Store) Get(head PageID) ([]byte, error) {
	data, _, err := s.walk(head, nil, nil, true)
	return data, err
}

// GetChain reads the blob chained from head and returns its page ids in
// one pass — what recovery wants, since it needs both the content and the
// reachability set and should not pay the page reads twice — and
// remembers the chain for a later Free. The blob is appended to data and
// the ids to ids, so a caller looping over many blobs can recycle both
// backing arrays (pass them back re-sliced to zero length).
func (s *Store) GetChain(head PageID, data []byte, ids []PageID) ([]byte, []PageID, error) {
	start := len(ids)
	data, ids, err := s.walk(head, data, ids, true)
	if err != nil {
		return nil, nil, err
	}
	s.link(ids[start:])
	return data, ids, nil
}

// Chain returns the page ids making up the blob at head (for reachability
// sweeps), verifying checksums along the way.
func (s *Store) Chain(head PageID) ([]PageID, error) {
	_, ids, err := s.walk(head, nil, nil, false)
	return ids, err
}

// walk follows the chain from head on the device, appending every page id
// to ids and, with payload set, every page's payload to data. Each page
// must pass its checksum; a chain longer than the device cycles.
func (s *Store) walk(head PageID, data []byte, ids []PageID, payload bool) ([]byte, []PageID, error) {
	start := len(ids)
	for id := head; id != NilPage; {
		if len(ids)-start >= s.dev.NumPages() {
			return nil, nil, fmt.Errorf("pager: blob chain from page %d cycles", head)
		}
		buf := s.scratch
		if err := s.dev.Read(id, buf); err != nil {
			return nil, nil, err
		}
		if binary.LittleEndian.Uint32(buf[0:]) != crc32.Checksum(buf[4:], storeCRC) {
			return nil, nil, fmt.Errorf("pager: blob page %d failed checksum", id)
		}
		if payload {
			n := binary.LittleEndian.Uint32(buf[8:])
			if n > BlobPayload {
				return nil, nil, fmt.Errorf("pager: blob page %d claims %d payload bytes", id, n)
			}
			data = append(data, buf[blobHeader:blobHeader+n]...)
		}
		ids = append(ids, id)
		id = PageID(binary.LittleEndian.Uint32(buf[4:]))
	}
	return data, ids, nil
}

// Free schedules the blob at head for reuse after the next Commit. A head
// this store wrote (Put) or read (GetChain) is released from the chain
// memo without touching the device; any other head's chain is walked to
// find its pages, so it must still be intact.
func (s *Store) Free(head PageID) error {
	start := len(s.pending)
	ids, ok := s.known(head, s.pending)
	if !ok {
		var err error
		if _, ids, err = s.walk(head, nil, ids[:start], false); err != nil {
			return err
		}
	}
	s.pending = ids
	return nil
}

// Commit makes every page freed since the previous Commit reusable. Call
// it only after the superblock referencing the new checkpoint is durable:
// until then the freed pages still belong to the previous checkpoint,
// which a crash would fall back to.
func (s *Store) Commit() {
	s.forget(s.pending)
	// Merge the sorted frees into the freelist, which stays descending as
	// RebuildFree builds it: alloc pops the lowest free page, so a blob
	// lands in ascending runs the device can write together. A merge, not
	// a sort of the whole list, so the cost follows the pages freed.
	slices.Sort(s.pending)
	i, k := len(s.free)-1, len(s.free)+len(s.pending)
	s.free = slices.Grow(s.free, len(s.pending))[:k]
	for _, id := range s.pending {
		for ; i >= 0 && s.free[i] < id; i-- {
			k--
			s.free[k] = s.free[i]
		}
		k--
		s.free[k] = id
	}
	s.pending = s.pending[:0]
	s.staged = s.staged[:0]
}

// Rollback discards the frees staged since the previous Commit, for a
// checkpoint that failed before its superblock landed: the pages stay
// referenced by the still-current checkpoint, so they must not re-enter
// circulation (their chains stay memoized: the blobs are live again).
// Pages written by the failed attempt are leaked until the next recovery's
// RebuildFree reclaims them — a bounded loss that keeps the failure path
// trivially correct — and the memo forgets their chains.
func (s *Store) Rollback() {
	for _, head := range s.staged {
		ids, _ := s.known(head, s.ids[:0])
		s.ids = ids
		s.forget(ids)
	}
	s.staged = s.staged[:0]
	s.pending = s.pending[:0]
}

// RebuildFree derives the freelist as every allocated page (past the
// superblocks) not in reachable, for use after recovery.
func (s *Store) RebuildFree(reachable []PageID) {
	used := make([]bool, s.dev.NumPages())
	for _, id := range reachable {
		if int(id) < len(used) {
			used[id] = true
		}
	}
	s.free = s.free[:0]
	s.pending = s.pending[:0]
	// Descending, so that alloc (which pops the tail) reuses low pages
	// first and a long-lived store stays compact; Commit keeps the order.
	for i := len(used) - 1; i >= 2; i-- {
		if !used[i] {
			s.free = append(s.free, PageID(i))
		}
	}
	s.forget(s.free)
}
