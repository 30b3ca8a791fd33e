// Package fitingtree is a Go implementation of FITing-Tree, the data-aware
// approximate index structure of Galakatos, Markovitch, Binnig, Fonseca and
// Kraska (SIGMOD 2019; preprint title "A-Tree").
//
// # What it is
//
// A FITing-Tree indexes a sorted attribute by approximating its key ->
// position mapping with piece-wise linear segments whose maximal
// interpolation error is bounded by a tunable threshold E. Only the
// segments' boundaries (start key, slope, page pointer) are organized in a
// tree — here two levels of sorted start-key arrays over the page chain —
// so the index size is governed by how linear the data is rather than by
// how many keys it has — often orders of magnitude smaller than a dense
// B+ tree at comparable lookup latency. Lookups search at most a
// 2E+1-element window after interpolating; inserts land in per-segment
// sorted buffers that are merged and re-segmented when full, preserving the
// error guarantee under updates.
//
// # Quick start
//
//	keys := []uint64{ ... sorted ... }
//	vals := []string{ ... parallel ... }
//	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
//	v, ok := t.Lookup(keys[42])
//	t.Insert(12345, "fresh")
//	t.AscendRange(1000, 2000, func(k uint64, v string) bool { ...; return true })
//
// Choose the error threshold with the Section 6 cost model via Tune: given
// either a lookup latency target (in ns) or an index storage budget (in
// bytes), it picks the threshold for you from samples of your data.
//
// For an attribute of an unsorted heap table, build a non-clustered index
// with BuildSecondary; it stores sorted (key, row id) postings subject to
// the same error-bounded segmentation.
//
// # Concurrency and snapshots
//
// NewOptimistic provides latch-free reads under a single writer: every
// write publishes an immutable state (base tree + pending-write delta)
// through an atomic pointer, and a full delta is flushed with a
// page-granular copy-on-write merge that rebuilds only the pages the
// delta touches. On top of it sits one sharded store, optionally durable.
// NewSharded range-partitions the key space over several Optimistic
// shards behind a distribution-aware partitioner, so writers on different
// shards proceed concurrently while reads stay latch-free; skewed shards
// are rebalanced automatically. OpenDurableSharded is the same engine
// with crash safety plugged in — per-shard write-ahead logs appended
// inside each shard's writer section, incremental checkpoints committing
// one atomic cross-shard cut — and its one-shard case (shards = 1) is the
// single-writer store. Use Encode/Decode to snapshot a tree to and from a
// stream, EncodeOptimistic to snapshot a live Optimistic facade without
// blocking its writers, and EncodeSharded for a coherent cut across all
// shards in the same stream format; Decode reads any of them back as a
// tree, for NewOptimistic or NewSharded to wrap.
//
// docs/ARCHITECTURE.md in the repository describes the layer map, the
// snapshot+delta read protocol, the copy-on-write flush, and the
// invariants in detail.
package fitingtree

import (
	"fitingtree/internal/core"
	"fitingtree/internal/num"
)

// Key is the constraint on indexable key types: every ordered numeric Go
// type (integers of any width and floats) plus ~string, ordered byte-wise.
// The keycodec package encodes composite and other keys as such strings.
type Key = num.Key

// Options configures a FITing-Tree; see core.Options for field docs. The
// zero value selects Error 100 (DefaultError) with no insert buffer;
// BufferSize -1 selects the paper's buffer of Error/2.
type Options = core.Options

// DefaultError is the error threshold used when Options.Error is zero.
const DefaultError = core.DefaultError

// Tree is a clustered FITing-Tree index from K to V. Build one with
// BulkLoad; an empty tree from BulkLoad(nil, nil, opts) accepts inserts.
// Not safe for concurrent use — see Optimistic.
type Tree[K Key, V any] = core.Tree[K, V]

// Stats is every index's one metrics surface, read from carried counts:
// size and shape — IndexSize follows the paper's byte accounting (inner
// tree — the chain's start arrays, 16 bytes per page and per chunk — + 24
// bytes per segment) — maintenance counters, and the facades' facts.
type Stats = core.Stats

// Counters reports maintenance activity (inserts, merges, pages created),
// as Stats().Counters.
type Counters = core.Counters

// BulkLoad builds a FITing-Tree over sorted keys (duplicates allowed) and
// parallel values using the paper's one-pass segmentation. The input is
// copied. The segmentation and the copies are spread over GOMAXPROCS
// processors; the tree built does not depend on how many there are.
func BulkLoad[K Key, V any](keys []K, vals []V, opts Options) (*Tree[K, V], error) {
	return core.BulkLoad(keys, vals, opts)
}
