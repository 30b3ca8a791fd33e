package fitingtree

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// This file holds the per-shard halves of the durability protocol: the
// op encoding a durable store plugs into each shard's writer section
// (group commit itself — batch, barriers, poison — is internal/wal's),
// loading one shard's checkpoint chunks, composing its WAL tail into one
// frozen layer, folding its pending layers for a cut, and writing or
// releasing its chunk blobs.
// The store that drives them — cross-shard cut, rebalance commit, recovery
// — is DurableSharded (durable_sharded.go); a one-shard store is the same
// code with one shard.

// shardLog is one shard's commit log as its writer section sees it: the
// shard's WAL and the buffer its ops are encoded into. It is attached to
// the shard's Optimistic and only ever touched under that shard's writer
// mutex, which makes append order apply order. The WAL owns the rest of
// group commit: the batch, the barriers and the store-wide poison live in
// its wal.Group.
type shardLog[K Key, V any] struct {
	*wal.Log
	codec *opCodec[K, V]
	buf   []byte // the record being appended; the log copies it into its frame
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
	_, err = l.Append(payload)
	return err
}

// loadCheckpoint is the one loader of a stored cut: it decodes every
// shard's chunk blobs (c's manifest entries) and assembles one tree per
// shard, checking each non-empty shard's keys against its fences — the
// persisted routing, so a shard holding another shard's keys is rejected
// rather than loaded where no lookup would find them. It registers the
// fresh chunk id -> blob head pairs in heads (chunk ids are
// process-unique, so one map serves the store) and returns the ids in
// (shard, chain) order, every page the cut reaches (the manifest's chain
// and every chunk's: the reachable set), and each chunk's pages, bytes and
// elements.
//
// The calling goroutine makes every store (hence device) call: it reads the
// blobs in order — page CRCs, payload lengths and the chain bound are
// checked as the bytes arrive — into a small ring of recycled buffers, and
// min(GOMAXPROCS, chunks) workers decode them (structure, key order and NaN
// checks travel with the bytes); assembly then runs shard by shard. A
// failure stops the reads, every worker is joined before the return, and
// the error is the lowest failing (shard, chunk)'s whatever the schedule:
// chunks are handed out in order and each one handed out is decoded. One
// processor runs everything inline.
func loadCheckpoint[K Key, V any](store *pager.Store, snapCodec core.SnapCodec[K, V], c storedCut[K],
	heads map[uint64]pager.PageID) (trees []*Tree[K, V], order []uint64, reachable []pager.PageID, chunks []ScrubChunk, err error) {
	var chunkHeads []pager.PageID // every shard's, flattened
	for s, cut := range c.m.Shards {
		for i, h := range cut.Chunks {
			chunkHeads = append(chunkHeads, pager.PageID(h))
			chunks = append(chunks, ScrubChunk{Shard: s, Index: i})
		}
	}
	snaps := make([]core.ChunkSnap[K, V], len(chunkHeads))
	errs := make([]error, len(chunkHeads))
	workers := min(runtime.GOMAXPROCS(0), len(chunkHeads))
	// One buffer per worker plus the one being read into; Decode copies
	// what it keeps, so a decoded buffer goes straight back to the reader.
	ring := make(chan []byte, workers+1)
	for i := 0; i < cap(ring); i++ {
		ring <- nil
	}
	type job struct {
		i    int
		blob []byte
	}
	jobs := make(chan job)
	var failed atomic.Bool
	decode := func(j job) {
		if snaps[j.i], errs[j.i] = snapCodec.Decode(j.blob); errs[j.i] != nil {
			failed.Store(true)
		}
		for _, p := range snaps[j.i].Pages {
			chunks[j.i].Elements += len(p.Keys) + len(p.BufKeys)
		}
		ring <- j.blob[:0]
	}
	var wg sync.WaitGroup
	for w := 0; w < workers && workers > 1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				decode(j)
			}
		}()
	}
	reachable = c.mchain
	largest := 0 // the largest blob read so far: a fresh buffer's size
	for i := 0; i < len(chunkHeads) && !failed.Load(); i++ {
		buf := <-ring
		if buf == nil {
			buf = make([]byte, 0, largest)
		}
		blob, chain, err := store.GetChain(chunkHeads[i], buf, reachable)
		if err != nil {
			errs[i] = err
			break
		}
		largest = max(largest, len(blob))
		chunks[i].Pages, chunks[i].Bytes = len(chain)-len(reachable), len(blob)
		reachable = chain
		if workers > 1 {
			jobs <- job{i, blob}
		} else {
			decode(job{i, blob})
		}
	}
	close(jobs)
	wg.Wait()
	trees = make([]*Tree[K, V], len(c.m.Shards))
	for s, at := 0, 0; s < len(trees); s++ {
		n := len(c.m.Shards[s].Chunks)
		for i, err := range errs[at : at+n] {
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("fitingtree: shard %d: checkpoint chunk %d: %w", s, i, err)
			}
		}
		if trees[s], err = core.AssembleChunks(snaps[at:at+n], c.m.Options); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("fitingtree: shard %d: %w", s, err)
		}
		if lo, _, ok := trees[s].Min(); ok {
			if hi, _, _ := trees[s].Max(); (s > 0 && lo < c.bounds[s-1]) || (s < len(c.bounds) && hi >= c.bounds[s]) {
				return nil, nil, nil, nil, fmt.Errorf("fitingtree: shard %d holds keys [%v, %v], outside its fences", s, lo, hi)
			}
		}
		// Assembly creates one chunk per snapshot in order, so the fresh
		// chunk ids pair positionally with the manifest's blob heads.
		for i, id := range trees[s].ChunkIDs() {
			heads[id] = chunkHeads[at+i]
			order = append(order, id)
		}
		at += n
	}
	return trees, order, reachable, chunks, nil
}

// replayTail composes a WAL tail into one frozen delta layer; through the
// write path a long tail would fold again and again, re-segmenting the same
// hot pages. The records are sorted by key, in log order within a key, and
// each key's run applies the write path's op rule through the same helpers:
// a delete consumes the newest still-pending insert it may take
// (consumeAdd), else records one more tombstone on the checkpoint tree's
// matches (addTomb). Every logged delete had a live victim when it was
// logged, and the WAL tail is a prefix-exact record of the ops that created
// it, so the tombstones can never exceed the checkpoint tree's matches. The
// runs become the entries of one frozen layer (deltaFromOps; nil for an
// empty tail) that the shard's first flush folds into the checkpoint tree
// with a single page-granular MergeCOW pass. Which of several
// distinct-valued duplicates an anonymous delete victimizes may differ from
// the original run's flush-timing-dependent choice; that choice was never
// acknowledged state (see Optimistic.Delete). A value delete replays
// exactly: its record names the victim. Records with LSN < replayFrom are
// skipped — they are covered by the checkpoint and survive only because the
// truncation after it didn't land (crash between superblock commit and
// truncate).
func replayTail[K Key, V any](codec opCodec[K, V], records []wal.Record,
	replayFrom uint64) (*odelta[K, V], error) {
	type record struct {
		lsn uint64
		op  byte
		k   K
		v   V
	}
	recs := make([]record, 0, len(records))
	for _, r := range records {
		if r.LSN < replayFrom {
			continue
		}
		op, k, v, err := codec.decodeOp(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("fitingtree: wal replay lsn %d: %w", r.LSN, err)
		}
		recs = append(recs, record{r.LSN, op, k, v})
	}
	slices.SortFunc(recs, func(a, b record) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.lsn, b.lsn)
	})
	distinct := 0 // keys, so ops is allocated once
	for i := range recs {
		if i == 0 || recs[i].k != recs[i-1].k {
			distinct++
		}
	}
	ops := make([]core.MergeOp[K, V], 0, distinct)
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].k == recs[0].k {
			n++
		}
		run := recs[:n]
		recs = recs[n:]
		// Keys equal under == may differ in bits (±0): the op carries those
		// of the run's last record that touched its inserts, else of its
		// last record.
		op := core.MergeOp[K, V]{Key: run[n-1].k}
		for _, r := range run {
			if r.op == walOpInsert {
				op.Adds = append(op.Adds, r.v)
			} else if !consumeAdd(&op, r.op, r.v) {
				addTomb(&op, r.op, r.v)
				continue
			}
			op.Key = r.k
		}
		if len(op.Adds) == 0 && op.Dels == 0 && len(op.Tombs) == 0 {
			continue // every insert was consumed
		}
		ops = append(ops, op)
	}
	return deltaFromOps(ops), nil
}

// encodeAhead is how many encoded chunks may wait for the single-threaded
// Put, and so how many blob buffers a cut keeps in flight.
const encodeAhead = 3

// writeDirtyChunks serializes tree's chunks into store, skipping every
// chunk whose id already has a blob in prev (carried over by reference —
// the copy-on-write merges preserve untouched chunks' identity, so the id
// diff is exactly the dirty set). Live chunks are recorded in next, and the
// chain-ordered chunk ids and blob heads (as the manifest spells them) are
// returned with the written/reused counts. On error the caller owns the
// Rollback.
//
// Every Put runs on the calling goroutine, in chain order, so the pages a
// cut allocates do not depend on the schedule; one worker encodes up to
// encodeAhead chunks ahead of it into recycled buffers (the tree is
// immutable) and has exited by the time the call returns.
func writeDirtyChunks[K Key, V any](store *pager.Store, snapCodec core.SnapCodec[K, V],
	tree *Tree[K, V], prev, next map[uint64]pager.PageID) (ids, chunks []uint64, written, reused int, err error) {
	ids = tree.ChunkIDs()
	chunks = make([]uint64, len(ids))
	var dirty []int
	for i, id := range ids {
		if head, ok := prev[id]; ok {
			next[id], chunks[i] = head, uint64(head)
			reused++
		} else {
			dirty = append(dirty, i)
		}
	}
	type encoded struct {
		i    int
		blob []byte
		err  error
	}
	// free and out together hold the encodeAhead buffers in circulation, so
	// a send on either never blocks; the worker waits only for a buffer.
	free := make(chan []byte, encodeAhead)
	out := make(chan encoded, encodeAhead)
	for i := 0; i < encodeAhead; i++ {
		free <- nil
	}
	go func() {
		defer close(out)
		for _, i := range dirty {
			buf, ok := <-free
			if !ok {
				return
			}
			blob, err := snapCodec.AppendEncode(buf[:0], tree.ChunkSnap(i))
			out <- encoded{i, blob, err}
		}
	}()
	for e := range out {
		if err != nil {
			continue // failed: drain until the worker has stopped
		}
		var head pager.PageID
		if e.err != nil {
			err = fmt.Errorf("fitingtree: checkpoint chunk %d: %w", e.i, e.err)
		} else if head, err = store.Put(e.blob); err == nil {
			next[ids[e.i]], chunks[e.i] = head, uint64(head)
			written++
			free <- e.blob
			continue
		}
		close(free) // the worker stops once the buffers still in free run out
	}
	return ids, chunks, written, reused, err
}

// freeDeadHeads releases the blobs of every chunk in prev that next no
// longer references — reusable only after the checkpoint commits (shadow
// paging) — in order, the previous cut's (shard, chain) order: which pages
// are freed first decides where the next cut's blobs land, and a store's
// layout should follow from its op history, not from a map's iteration. On
// error the caller owns the Rollback.
func freeDeadHeads(store *pager.Store, order []uint64, prev, next map[uint64]pager.PageID) error {
	for _, id := range order {
		if _, live := next[id]; !live {
			if err := store.Free(prev[id]); err != nil {
				return err
			}
		}
	}
	return nil
}
