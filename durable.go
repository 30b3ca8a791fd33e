package fitingtree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// This file holds the per-shard halves of the durability protocol: the
// commit log a durable store plugs into each shard's writer section,
// loading one shard's checkpoint chunks, replaying its WAL tail, folding
// its pending layers for a cut, and writing or releasing its chunk blobs.
// The store that drives them — cross-shard cut, rebalance commit, recovery
// — is DurableSharded (durable_sharded.go); a one-shard store is the same
// code with one shard.

// walShared is what every shard log of one durable store shares: the op
// codec, the group-commit batch and the sticky write-path poison.
type walShared[K Key, V any] struct {
	codec     opCodec[K, V]
	syncEvery atomic.Int64 // group-commit batch, per shard
	failed    atomic.Pointer[error]
}

// poison makes err the store's sticky write-path failure (first error
// wins).
func (w *walShared[K, V]) poison(err error) { w.failed.CompareAndSwap(nil, &err) }

// failedErr returns the sticky write-path poison, nil when healthy.
func (w *walShared[K, V]) failedErr() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// shardLog is one shard's commit log: its private WAL plus the
// group-commit counter. It is attached to the shard's Optimistic and only
// ever touched under that shard's writer mutex, which makes append order
// apply order. Any WAL error poisons the whole store: the failed log's
// tail state is unknown (a torn frame may sit where the next append would
// land; a failed fsync leaves the durability of everything since the
// previous barrier unknown), and once one log is in that state no write
// anywhere can be honestly acknowledged.
type shardLog[K Key, V any] struct {
	*walShared[K, V]
	wal      *wal.Log
	unsynced int    // appends since the last barrier
	buf      []byte // the record being appended; the log copies it into its frame
}

// append encodes one op and appends its record. An encode error (an
// exotic value type gob rejects) fails the write without poisoning:
// nothing reached the log.
func (l *shardLog[K, V]) append(op byte, k K, v V) error {
	payload, err := l.codec.encodeOp(l.buf[:0], op, k, v)
	if err != nil {
		return err
	}
	l.buf = payload
	if _, err := l.wal.Append(payload); err != nil {
		l.poison(err)
		return err
	}
	return nil
}

// commit counts one appended-and-applied op against the group-commit
// batch, running the barrier when the batch is full.
func (l *shardLog[K, V]) commit() error {
	l.unsynced++
	if l.unsynced < int(l.syncEvery.Load()) {
		return nil
	}
	return l.sync()
}

// sync runs the shard's fsync barrier if anything is pending.
func (l *shardLog[K, V]) sync() error {
	if l.unsynced == 0 {
		return nil
	}
	if err := l.wal.Sync(); err != nil {
		l.poison(err)
		return err
	}
	l.unsynced = 0
	return nil
}

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
