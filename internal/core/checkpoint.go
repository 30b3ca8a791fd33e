package core

import (
	"fmt"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// This file is the checkpointing surface of the tree: immutable chunks in,
// immutable chunks out. A checkpoint serializes no index — the start and
// head arrays are derived from the chunks' segment models as the pages are
// assembled — so the durable format is simply the chunk chain, and the incremental
// checkpointer pairs ChunkIDs (which chunks changed?) with ChunkSnap
// (serialize exactly those) to write O(dirty) chunks per checkpoint, the
// on-disk mirror of MergeCOW's in-memory publication cost.

// PageSnap is the serializable image of one table page: the segment's
// prediction model plus its data and insert buffer. All fields are
// exported for gob.
type PageSnap[K num.Key, V any] struct {
	Seg     segment.Segment[K]
	Keys    []K
	Vals    []V
	BufKeys []K
	BufVals []V
	Deletes int
	// WErr is the segmentation error bound the page was cut under: the
	// tree's, which is what ChunkSnap writes. Zero in snapshots taken
	// before the field existed. Assembly takes a WErr up to the tree's
	// bound as it is, and adds a larger one's excess to Deletes: a page
	// built under a looser bound is searched under a window widened by the
	// excess until a fold re-segments it at the tree's.
	WErr int
}

// ChunkSnap is the serializable image of one chain chunk.
type ChunkSnap[K num.Key, V any] struct {
	Pages []PageSnap[K, V]
	// KeysVerified records that the decoder already checked every page's
	// keys for ordering and NaNs while it filled them (the raw snapshot
	// codec does this in its decode loop, where the keys are cache-warm).
	// AssembleChunks then skips its own per-key re-scan; all cheaper
	// O(pages) structural checks still run. Decoders must never take this
	// from the wire — only set it after verifying.
	KeysVerified bool
}

// NumChunks returns the number of chunks in the chain.
func (t *Tree[K, V]) NumChunks() int { return len(t.chunks) }

// ChunkSnap returns the serializable image of chunk i. The snapshot
// aliases the chunk's slices rather than copying them, which is safe for
// published (immutable) trees; encode it before mutating a single-writer
// tree.
func (t *Tree[K, V]) ChunkSnap(i int) ChunkSnap[K, V] {
	c := t.chunks[i]
	segErr := t.opts.segError()
	snap := ChunkSnap[K, V]{Pages: make([]PageSnap[K, V], len(c.pages))}
	for j, p := range c.pages {
		snap.Pages[j] = PageSnap[K, V]{
			Seg:     p.seg,
			Keys:    p.keys,
			Vals:    p.vals,
			BufKeys: p.bufKeys,
			BufVals: p.bufVals,
			Deletes: p.deletes,
			WErr:    segErr,
		}
	}
	return snap
}

// validateSnap checks one decoded chunk against the invariants assembly
// relies on, so a corrupted or adversarial checkpoint is rejected instead
// of becoming a tree that misroutes lookups.
func validateSnap[K num.Key, V any](ci int, snap ChunkSnap[K, V]) error {
	if len(snap.Pages) == 0 {
		return fmt.Errorf("fitingtree: checkpoint chunk %d is empty", ci)
	}
	for pi, p := range snap.Pages {
		if len(p.Keys) != len(p.Vals) || len(p.BufKeys) != len(p.BufVals) {
			return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: key/value lengths differ", ci, pi)
		}
		if p.Deletes < 0 {
			return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: negative delete count", ci, pi)
		}
		if p.WErr < 0 {
			return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: negative error bound", ci, pi)
		}
		if p.Seg.Start != p.Seg.Start {
			return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: NaN start key", ci, pi)
		}
		if snap.KeysVerified {
			continue
		}
		// One comparison per key: !(k >= prev) is false for a sorted run
		// and true for both an out-of-order key and a NaN, so the slow
		// NaN-vs-unsorted distinction only runs on the failure path. A NaN
		// in the first slot has no predecessor and is checked directly.
		if len(p.Keys) > 0 && p.Keys[0] != p.Keys[0] {
			return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: NaN key", ci, pi)
		}
		for i := 1; i < len(p.Keys); i++ {
			if !(p.Keys[i] >= p.Keys[i-1]) {
				if p.Keys[i] != p.Keys[i] {
					return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: NaN key", ci, pi)
				}
				return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: keys not sorted", ci, pi)
			}
		}
		if len(p.BufKeys) > 0 && p.BufKeys[0] != p.BufKeys[0] {
			return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: NaN buffered key", ci, pi)
		}
		for i := 1; i < len(p.BufKeys); i++ {
			if !(p.BufKeys[i] >= p.BufKeys[i-1]) {
				if p.BufKeys[i] != p.BufKeys[i] {
					return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: NaN buffered key", ci, pi)
				}
				return fmt.Errorf("fitingtree: checkpoint chunk %d page %d: buffer not sorted", ci, pi)
			}
		}
	}
	return nil
}

// AssembleChunks rebuilds a tree from checkpointed chunks (in chain
// order) after validating them. The pages' segment models are restored
// verbatim, so no re-segmentation runs: the cost is decoding plus
// deriving each page's start and head — this is what makes recovery scale
// with the checkpoint's size rather than re-running ShrinkingCone over
// every key. A page recorded under a looser bound than the tree's keeps
// its model, its window widened by the excess (see PageSnap.WErr).
func AssembleChunks[K num.Key, V any](snaps []ChunkSnap[K, V], opts Options) (*Tree[K, V], error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree[K, V]{opts: o}
	segErr := o.segError()
	chunks := make([]*chunk[K, V], 0, len(snaps))
	var prevStart K
	havePrev := false
	for ci, snap := range snaps {
		if err := validateSnap(ci, snap); err != nil {
			return nil, err
		}
		run := makeRun[K, V](len(snap.Pages))
		for pi, ps := range snap.Pages {
			if havePrev && ps.Seg.Start < prevStart {
				return nil, fmt.Errorf("fitingtree: checkpoint chunk %d page %d: start keys not sorted", ci, pi)
			}
			prevStart, havePrev = ps.Seg.Start, true
			// Each page is its own allocation: a shared per-chunk array
			// would be pinned whole by one page a later fold carries over.
			p := &page[K, V]{
				id:      pageSeq.Add(1),
				seg:     ps.Seg,
				keys:    ps.Keys,
				vals:    ps.Vals,
				pref:    stringPrefixes(ps.Keys),
				fixed8:  allLen8(ps.Keys),
				bufKeys: ps.BufKeys,
				bufVals: ps.BufVals,
				deletes: ps.Deletes + max(0, ps.WErr-segErr),
			}
			run.add(segErr, p)
			t.size += len(ps.Keys) + len(ps.BufKeys)
			t.buffered += len(ps.BufKeys)
			t.deletes += p.deletes
		}
		chunks = append(chunks, newChunk(run))
		t.npages += len(run.pages)
	}
	t.setChunks(chunks)
	t.fill0 = fillOf(t.size, t.npages) // a load is the tree's last whole build
	return t, nil
}
