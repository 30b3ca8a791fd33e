package fitingtree

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshotVersion guards the on-stream format.
const snapshotVersion = 1

// snapshotHeader is the gob-encoded preamble of an encoded tree.
type snapshotHeader struct {
	Version  int
	Elements int
	Options  Options
}

// encodeSnapshot writes the common stream format: a header followed by the
// elements in key order.
func encodeSnapshot[K Key, V any](w io.Writer, opts Options, keys []K, vals []V) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snapshotHeader{
		Version:  snapshotVersion,
		Elements: len(keys),
		Options:  opts,
	}); err != nil {
		return fmt.Errorf("fitingtree: encode header: %w", err)
	}
	if err := enc.Encode(keys); err != nil {
		return fmt.Errorf("fitingtree: encode keys: %w", err)
	}
	if err := enc.Encode(vals); err != nil {
		return fmt.Errorf("fitingtree: encode values: %w", err)
	}
	return nil
}

// Encode writes a snapshot of the tree to w: its options followed by every
// element in key order. Buffered inserts are folded into the stream, so
// decoding re-bulk-loads a clean, fully segmented tree with the same
// contents and options.
func Encode[K Key, V any](t *Tree[K, V], w io.Writer) error {
	keys := make([]K, 0, t.Len())
	vals := make([]V, 0, t.Len())
	t.Ascend(func(k K, v V) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return encodeSnapshot(w, t.Options(), keys, vals)
}

// EncodeOptimistic writes a snapshot of the facade's currently published
// state to w. A state is an immutable value, so one atomic load yields a
// consistent cut of the whole index without blocking writers or readers:
// writes published after the call starts are simply not part of the
// snapshot. Pending delta writes (inserts and tombstones, in the frozen
// delta of an in-flight background flush as well as the active delta) are
// folded into the stream, and the format matches Encode's, so the result
// decodes with Decode (wrap the tree in NewOptimistic for a facade). The
// fold at encode time applies the same layering the background flusher
// applies physically, so encoding mid-flush yields bytes identical to
// encoding after a SyncFlush.
func EncodeOptimistic[K Key, V any](o *Optimistic[K, V], w io.Writer) error {
	st := o.state.Load()
	keys, vals := collectStates([]*ostate[K, V]{st})
	return encodeSnapshot(w, st.tree.Options(), keys, vals)
}

// Decode reads a snapshot produced by Encode or EncodeOptimistic and
// bulk-loads a tree from it. The stream is treated as untrusted: the
// header's element count and version are validated before any slice is
// decoded, each slice's length is checked against the header as soon as it
// arrives, and the final bulk load re-verifies key ordering and rejects
// NaN keys — a truncated or bit-flipped snapshot yields an error, never a
// silently corrupt tree.
func Decode[K Key, V any](r io.Reader) (*Tree[K, V], error) {
	dec := gob.NewDecoder(r)
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("fitingtree: decode header: %w", err)
	}
	if h.Version != snapshotVersion {
		return nil, fmt.Errorf("fitingtree: unsupported snapshot version %d", h.Version)
	}
	if h.Elements < 0 {
		return nil, fmt.Errorf("fitingtree: snapshot header claims %d elements", h.Elements)
	}
	// Element counts drive downstream allocation (pages, start arrays), so
	// cross-check each slice against the header the moment it decodes; gob
	// itself bounds a slice's claimed length by the message size, so a
	// corrupt count cannot drive an outsized allocation either.
	var keys []K
	if err := dec.Decode(&keys); err != nil {
		return nil, fmt.Errorf("fitingtree: decode keys: %w", err)
	}
	if len(keys) != h.Elements {
		return nil, fmt.Errorf("fitingtree: snapshot holds %d keys, header says %d",
			len(keys), h.Elements)
	}
	var vals []V
	if err := dec.Decode(&vals); err != nil {
		return nil, fmt.Errorf("fitingtree: decode values: %w", err)
	}
	if len(vals) != h.Elements {
		return nil, fmt.Errorf("fitingtree: snapshot holds %d values, header says %d",
			len(vals), h.Elements)
	}
	// BulkLoad re-validates the options and rejects NaN or out-of-order
	// keys, so a stream with a corrupted body cannot reach routing.
	t, err := BulkLoad(keys, vals, h.Options)
	if err != nil {
		return nil, fmt.Errorf("fitingtree: rebuild: %w", err)
	}
	return t, nil
}

// EncodeSharded writes a snapshot of the whole sharded facade to w. The
// cut is coherent across shards: writers are excluded only while one state
// pointer per shard is loaded (O(shards) atomic loads), then the immutable
// states are encoded without blocking anyone. Shards partition the key
// space, so concatenating them in fence order yields the same
// key-ordered stream Encode produces — pending per-shard deltas folded in
// — and the result decodes with Decode (NewSharded re-partitions the
// tree).
func EncodeSharded[K Key, V any](s *Sharded[K, V], w io.Writer) error {
	keys, vals := collectStates(s.snapshotAll())
	return encodeSnapshot(w, s.opts, keys, vals)
}
