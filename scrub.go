package fitingtree

import (
	"fmt"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
)

// ScrubSuper is one superblock slot's scrub result.
type ScrubSuper struct {
	// Valid reports whether the slot holds a checksummed superblock.
	Valid bool
	// Epoch is the slot's checkpoint epoch (meaningful only when Valid).
	Epoch uint64
}

// ScrubChunk is one live checkpoint chunk's scrub result.
type ScrubChunk struct {
	// Shard is the owning shard's index.
	Shard int
	// Index is the chunk's position within its shard's manifest entry.
	Index int
	// Pages is the length of the chunk's blob page chain; Bytes its
	// decoded payload size.
	Pages int
	Bytes int
	// Elements is the number of (key, value) pairs the chunk carries,
	// buffered ones included.
	Elements int
}

// ScrubReport is Scrub's accounting of a checkpoint store's integrity.
type ScrubReport struct {
	// Supers describes both superblock slots; Epoch is the newest valid
	// one's — the checkpoint the rest of the report covers.
	Supers [2]ScrubSuper
	Epoch  uint64
	// Generation is the cut's fence generation.
	Generation uint64
	// Shards is the number of trees in the cut; Chunks their live chunks
	// in (shard, index) order.
	Shards int
	Chunks []ScrubChunk
	// Elements is the total element count across every verified tree;
	// LivePages the number of device pages reachable from the committed
	// superblock (manifest chain included).
	Elements int
	// ManifestPages is the manifest blob's own chain length.
	ManifestPages int
	LivePages     int
}

// Scrub verifies a checkpoint store end to end without opening it for
// writing: both superblock slots are checksum-validated, and the newest
// commit record is read and loaded by recovery's own reader and loader
// (readCut, loadCheckpoint) — the manifest and its fences decoded and
// checked, every live chunk's blob page chain walked with its per-page
// CRCs checked, every chunk decoded, each shard's tree reassembled and
// checked against its fences — and every tree is run through the full
// structural invariant check. The WAL is not consulted: Scrub audits
// exactly the state a recovery would load before tail replay. The type
// parameters must match the store's key and value types.
func Scrub[K Key, V any](dev pager.Device) (*ScrubReport, error) {
	var rep ScrubReport
	for slot := range rep.Supers {
		s, ok, err := pager.ReadSuperAt(dev, pager.PageID(slot))
		if err != nil {
			return nil, fmt.Errorf("fitingtree: scrub superblock %d: %w", slot, err)
		}
		rep.Supers[slot] = ScrubSuper{Valid: ok, Epoch: s.Epoch}
	}
	if !rep.Supers[0].Valid && !rep.Supers[1].Valid {
		return &rep, fmt.Errorf("fitingtree: scrub: no valid superblock")
	}
	store, codec := pager.NewStore(dev), newOpCodec[K, V]()
	c, _, err := readCut(store, &codec)
	rep.Epoch = c.super.Epoch
	if err != nil {
		return &rep, err
	}
	rep.Generation, rep.Shards, rep.ManifestPages = c.m.Generation, len(c.m.Shards), len(c.mchain)
	trees, _, reachable, chunks, err := loadCheckpoint(store, core.NewSnapCodec[K, V](), c, map[uint64]pager.PageID{})
	if err != nil {
		return &rep, err
	}
	rep.Chunks, rep.LivePages = chunks, len(reachable)
	for s, tree := range trees {
		if err := tree.CheckInvariants(); err != nil {
			return &rep, fmt.Errorf("fitingtree: scrub shard %d: %w", s, err)
		}
		rep.Elements += tree.Len()
	}
	return &rep, nil
}
