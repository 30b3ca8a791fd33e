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
// writing: both superblock slots are checksum-validated, the newest
// committed manifest is decoded, every live chunk's blob
// page chain is walked with its per-page CRCs checked, every chunk is
// decoded, and each shard's tree is reassembled and run through the full
// structural invariant check. The WAL is not consulted: Scrub audits
// exactly the state a recovery would load before tail replay. The type
// parameters must match the store's key and value types.
func Scrub[K Key, V any](dev pager.Device) (*ScrubReport, error) {
	var rep ScrubReport
	var slots [2]pager.Super
	for slot := 0; slot < 2; slot++ {
		s, ok, err := pager.ReadSuperAt(dev, pager.PageID(slot))
		if err != nil {
			return nil, fmt.Errorf("fitingtree: scrub superblock %d: %w", slot, err)
		}
		rep.Supers[slot] = ScrubSuper{Valid: ok, Epoch: s.Epoch}
		slots[slot] = s
	}
	var super pager.Super
	have := false
	for slot := 0; slot < 2; slot++ {
		if rep.Supers[slot].Valid && (!have || slots[slot].Epoch > super.Epoch) {
			super = slots[slot]
			have = true
		}
	}
	if !have {
		return &rep, fmt.Errorf("fitingtree: scrub: no valid superblock")
	}
	rep.Epoch = super.Epoch

	store := pager.NewStore(dev)
	m, mchain, err := loadShardManifest(store, super.Manifest)
	if err != nil {
		return &rep, fmt.Errorf("fitingtree: scrub: %w", err)
	}
	rep.ManifestPages = len(mchain)
	rep.LivePages = len(mchain)
	rep.Generation = m.Generation
	rep.Shards = len(m.Shards)

	snapCodec := core.NewSnapCodec[K, V]()
	for shard, cut := range m.Shards {
		snaps := make([]core.ChunkSnap[K, V], len(cut.Chunks))
		for i, head := range cut.Chunks {
			blob, chain, err := store.GetChain(pager.PageID(head), nil, nil)
			if err != nil {
				return &rep, fmt.Errorf("fitingtree: scrub shard %d chunk %d: %w", shard, i, err)
			}
			snap, err := snapCodec.Decode(blob)
			if err != nil {
				return &rep, fmt.Errorf("fitingtree: scrub shard %d chunk %d: %w", shard, i, err)
			}
			snaps[i] = snap
			n := 0
			for _, p := range snap.Pages {
				n += len(p.Keys) + len(p.BufKeys)
			}
			rep.Chunks = append(rep.Chunks, ScrubChunk{
				Shard:    shard,
				Index:    i,
				Pages:    len(chain),
				Bytes:    len(blob),
				Elements: n,
			})
			rep.LivePages += len(chain)
		}
		tree, err := core.AssembleChunks(snaps, m.Options)
		if err != nil {
			return &rep, fmt.Errorf("fitingtree: scrub shard %d: %w", shard, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			return &rep, fmt.Errorf("fitingtree: scrub shard %d: %w", shard, err)
		}
		rep.Elements += tree.Len()
	}
	return &rep, nil
}
