package fitingtree

import (
	"fmt"
	"sort"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// This file holds the per-shard halves of the durability protocol: loading
// one shard's checkpoint chunks, replaying its WAL tail, folding its
// pending layers for a cut, and writing or releasing its chunk blobs. The
// facade that drives them — write path, cross-shard cut, recovery, poison
// rule — is DurableSharded (durable_sharded.go); a one-shard store is the
// same code with one shard.

// loadCheckpointChunks decodes the chunk blobs at chunkHeads and assembles
// them into a tree, registering the fresh chunk id -> blob head pairs in
// heads and appending every chain page to reachable. Recovery calls it once
// per shard into the same heads map — chunk ids are process-unique, so one
// map serves the whole facade.
func loadCheckpointChunks[K Key, V any](store *pager.Store, snapCodec core.SnapCodec[K, V],
	chunkHeads []pager.PageID, opts Options, heads map[uint64]pager.PageID,
	reachable []pager.PageID) (*Tree[K, V], []pager.PageID, error) {
	snaps := make([]core.ChunkSnap[K, V], len(chunkHeads))
	// The blob buffer is recycled across chunks (Decode copies what it
	// keeps); the chain ids accumulate directly into reachable.
	var blob []byte
	var err error
	for i, head := range chunkHeads {
		blob, reachable, err = store.GetChain(head, blob[:0], reachable)
		if err != nil {
			return nil, nil, fmt.Errorf("fitingtree: checkpoint chunk %d: %w", i, err)
		}
		if snaps[i], err = snapCodec.Decode(blob); err != nil {
			return nil, nil, fmt.Errorf("fitingtree: checkpoint chunk %d: %w", i, err)
		}
	}
	tree, err := core.AssembleChunks(snaps, opts)
	if err != nil {
		return nil, nil, err
	}
	// Assembly creates one chunk per snapshot in order, so the fresh
	// chunk ids pair positionally with the manifest's blob heads.
	for i, id := range tree.ChunkIDs() {
		heads[id] = chunkHeads[i]
	}
	return tree, reachable, nil
}

// replayTail folds a WAL tail into tree as one batch instead of one facade
// write at a time: a long tail pushed through the ordinary insert path
// trips the flush threshold once per DefaultFlushEvery records and
// re-segments the same hot pages over and over, which dominates recovery.
// The buffer applies the write path's op semantics per key — an anonymous
// delete consumes the newest still-buffered insert for its key, else
// tombstones one more pre-existing match in scan order; a value delete
// consumes the newest still-buffered insert carrying its value, else
// records a value tombstone (every logged delete had a live victim when it
// was logged, and the WAL tail is a prefix-exact record of the ops that
// created it, so the tombstones can never exceed the checkpoint tree's
// matches) — then folds into the checkpoint tree with a single
// page-granular MergeCOW pass. Which of several distinct-valued duplicates
// an anonymous delete victimizes may differ from the original run's
// flush-timing-dependent choice; that choice was never acknowledged state
// (see Optimistic.Delete). A value delete replays exactly: its record
// names the victim. Records with LSN < replayFrom are skipped — they are
// covered by the checkpoint and survive only because the truncation after
// it didn't land (crash between superblock commit and truncate).
func replayTail[K Key, V any](tree *Tree[K, V], codec opCodec[K, V],
	records []wal.Record, replayFrom uint64) (*Tree[K, V], error) {
	adds := make(map[K][]V)
	tombs := make(map[K][]core.Tomb[V])
	replayed := 0
	for _, r := range records {
		if r.LSN < replayFrom {
			continue
		}
		op, k, v, err := codec.decodeOp(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("fitingtree: wal replay lsn %d: %w", r.LSN, err)
		}
		switch op {
		case walOpInsert:
			adds[k] = append(adds[k], v)
		case walOpDelete:
			if a := adds[k]; len(a) > 0 {
				adds[k] = a[:len(a)-1]
			} else {
				tombs[k] = append(tombs[k], core.Tomb[V]{Any: true})
			}
		default: // walOpDeleteValue
			a := adds[k]
			consumed := false
			for j := len(a) - 1; j >= 0; j-- {
				if any(a[j]) == any(v) {
					adds[k] = append(a[:j:j], a[j+1:]...)
					consumed = true
					break
				}
			}
			if !consumed {
				tombs[k] = append(tombs[k], core.Tomb[V]{Val: v})
			}
		}
		replayed++
	}
	if replayed == 0 {
		return tree, nil
	}
	keys := make([]K, 0, len(adds)+len(tombs))
	for k, a := range adds {
		if len(a) > 0 || len(tombs[k]) > 0 {
			keys = append(keys, k)
		}
	}
	for k := range tombs {
		if _, ok := adds[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ops := make([]core.MergeOp[K, V], len(keys))
	for i, k := range keys {
		ops[i] = core.MergeOp[K, V]{Key: k, Adds: adds[k]}
		// Pure-anonymous lists collapse to the counted fast path.
		anyOnly := true
		for _, t := range tombs[k] {
			if !t.Any {
				anyOnly = false
				break
			}
		}
		if anyOnly {
			ops[i].Dels = len(tombs[k])
		} else {
			ops[i].Tombs = tombs[k]
		}
	}
	return tree.MergeCOW(ops), nil
}

// foldState returns the tree equivalent to st with every pending layer
// folded in, sharing untouched chunks with st.tree. The fold reads only
// immutable published structures and costs O(pending).
func foldState[K Key, V any](st *ostate[K, V]) *Tree[K, V] {
	if len(st.frozen) > 0 || st.delta != nil {
		return st.fold()
	}
	return st.tree
}

// writeDirtyChunks serializes tree's chunks into store, skipping every
// chunk whose id already has a blob in prev (carried over by reference —
// the copy-on-write merges preserve untouched chunks' identity, so the id
// diff is exactly the dirty set). Live chunks are recorded in next, and the
// chain-ordered blob heads are returned with the written/reused counts. On
// error the caller owns the Rollback.
func writeDirtyChunks[K Key, V any](store *pager.Store, snapCodec core.SnapCodec[K, V],
	tree *Tree[K, V], prev, next map[uint64]pager.PageID) ([]pager.PageID, int, int, error) {
	ids := tree.ChunkIDs()
	chunks := make([]pager.PageID, len(ids))
	written, reused := 0, 0
	for i, id := range ids {
		if head, ok := prev[id]; ok {
			next[id], chunks[i] = head, head
			reused++
			continue
		}
		blob, err := snapCodec.Encode(tree.ChunkSnap(i))
		if err != nil {
			return nil, written, reused, fmt.Errorf("fitingtree: checkpoint chunk %d: %w", i, err)
		}
		head, err := store.Put(blob)
		if err != nil {
			return nil, written, reused, err
		}
		next[id], chunks[i] = head, head
		written++
	}
	return chunks, written, reused, nil
}

// freeDeadHeads releases the blobs of every chunk in prev that next no
// longer references — reusable only after the checkpoint commits (shadow
// paging). On error the caller owns the Rollback.
func freeDeadHeads(store *pager.Store, prev, next map[uint64]pager.PageID) error {
	for id, head := range prev {
		if _, live := next[id]; !live {
			if err := store.Free(head); err != nil {
				return err
			}
		}
	}
	return nil
}
