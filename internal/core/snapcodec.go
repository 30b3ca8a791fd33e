package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"fitingtree/internal/num"
)

// This file is the checkpoint chunk codec: the framing of a chunk blob
// around the element codec (elem.go), which writes every key, start key
// and value. A raw chunk is
//
//	format byte | u32 page count | per page:
//	  start key | u64 StartPos | u64 Count | u64 Slope bits |
//	  u32 n | n keys | n values | u32 m | m buffered keys | m values |
//	  u32 Deletes | u32 WErr (format 3 only)
//
// Only the value types in NewSnapCodec's set write raw chunks; every other
// V writes the whole chunk as one gob stream behind format byte 2, so
// every V stays supported. Decode also reads format 1, which predates the
// per-page error bound.

// Snapshot wire format discriminators (first byte of an encoded chunk).
const (
	snapFormatRaw   byte = 1 // fixed-width little-endian fields
	snapFormatGob   byte = 2 // gob-encoded ChunkSnap
	snapFormatRawV3 byte = 3 // raw + a u32 per-page error bound (WErr)
)

// errSnapTruncated is returned when a raw snapshot ends mid-field.
var errSnapTruncated = fmt.Errorf("fitingtree: chunk snapshot truncated")

// errSnapUnsorted and errSnapNaN reject snapshots whose keys violate the
// tree's ordering invariants. Each decoded key run is checked right after
// it is filled, while it is cache-warm, which is why AssembleChunks can
// skip its own re-scan for raw-decoded chunks (ChunkSnap.KeysVerified).
var (
	errSnapUnsorted = fmt.Errorf("fitingtree: chunk snapshot keys not sorted")
	errSnapNaN      = fmt.Errorf("fitingtree: chunk snapshot contains NaN key")
)

// SnapCodec converts ChunkSnaps to and from checkpoint blobs for one
// concrete (K, V) instantiation. Construct once with NewSnapCodec and
// reuse; the codec itself is stateless and safe for concurrent use.
type SnapCodec[K num.Key, V any] struct {
	key Elem[K]
	// val is V's element codec when V writes raw chunks; the zero Elem (no
	// raw form) makes every chunk a gob chunk.
	val Elem[V]
}

// NewSnapCodec resolves the key and value element codecs once.
func NewSnapCodec[K num.Key, V any]() SnapCodec[K, V] {
	c := SnapCodec[K, V]{key: NewElem[K]()}
	// Exactly these value types write raw chunks. Any other V with a raw
	// element form (a named type, int8, uint16, ...) has always written
	// gob chunks, and an older build cannot read a raw chunk of it: widening
	// the set would be a format change.
	switch any((*V)(nil)).(type) {
	case *uint64, *int64, *int, *uint, *int32, *uint32, *float64, *float32, *bool, *string:
		c.val = NewElem[V]()
	}
	return c
}

// verifyKeys rejects decoded key runs that violate the tree's ordering
// invariants: NaN keys (k != k is false for every non-float kind) and
// out-of-order neighbors under the key type's native comparison.
func verifyKeys[K num.Key](out []K) error {
	for i := range out {
		if out[i] != out[i] {
			return errSnapNaN
		}
		if i > 0 && out[i] < out[i-1] {
			return errSnapUnsorted
		}
	}
	return nil
}

// Encode serializes one chunk snapshot into a fresh buffer.
func (c *SnapCodec[K, V]) Encode(snap ChunkSnap[K, V]) ([]byte, error) {
	return c.AppendEncode(nil, snap)
}

// AppendEncode appends one chunk snapshot's wire form to buf and returns
// the extended slice: Encode for a caller that recycles its buffers (a cut
// encodes hundreds of chunks of about the same size). The bytes appended
// are exactly Encode's.
func (c *SnapCodec[K, V]) AppendEncode(buf []byte, snap ChunkSnap[K, V]) ([]byte, error) {
	if !c.val.Raw() {
		sink := bytes.NewBuffer(buf)
		sink.WriteByte(snapFormatGob)
		if err := gob.NewEncoder(sink).Encode(snap); err != nil {
			return nil, fmt.Errorf("fitingtree: encode chunk snapshot: %w", err)
		}
		return sink.Bytes(), nil
	}
	// The size is an exact precompute for fixed 8-byte keys and values and
	// a capacity hint otherwise (variable-width fields grow the buffer).
	size := 1 + 4
	for _, p := range snap.Pages {
		size += 32 + 4 + 16*len(p.Keys) + 4 + 16*len(p.BufKeys) + 8
	}
	buf = slices.Grow(buf, size)
	buf = append(buf, snapFormatRawV3)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snap.Pages)))
	for _, p := range snap.Pages {
		buf = c.key.Append(buf, p.Seg.Start)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Seg.StartPos)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Seg.Count)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Seg.Slope))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Keys)))
		buf = c.key.appendAll(buf, p.Keys)
		buf = c.val.appendAll(buf, p.Vals)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.BufKeys)))
		buf = c.key.appendAll(buf, p.BufKeys)
		buf = c.val.appendAll(buf, p.BufVals)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Deletes))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.WErr))
	}
	return buf, nil
}

// maxSnapPages bounds the page and element counts a raw snapshot header
// may claim, so a corrupted count cannot drive an outsized allocation
// before the per-field bounds checks reject the blob.
const maxSnapPages = 1 << 24

// Decode inverts Encode. Structural corruption (truncation, absurd
// counts) is caught here; semantic validation (ordering, parallel
// lengths) happens in AssembleChunks.
func (c *SnapCodec[K, V]) Decode(data []byte) (ChunkSnap[K, V], error) {
	var snap ChunkSnap[K, V]
	if len(data) == 0 {
		return snap, errSnapTruncated
	}
	switch data[0] {
	case snapFormatGob:
		if err := gob.NewDecoder(bytes.NewReader(data[1:])).Decode(&snap); err != nil {
			return snap, fmt.Errorf("fitingtree: decode chunk snapshot: %w", err)
		}
		// Never trust a verification claim from the wire: gob round-trips
		// exported fields, so a crafted stream could set it.
		snap.KeysVerified = false
		return snap, nil
	case snapFormatRaw, snapFormatRawV3:
	default:
		return snap, fmt.Errorf("fitingtree: unknown chunk snapshot format %d", data[0])
	}
	if !c.val.Raw() {
		return snap, fmt.Errorf("fitingtree: raw chunk snapshot for a value type without a raw codec")
	}
	// Format 1 predates per-page error bounds; its pages decode with WErr 0
	// and AssembleChunks applies the options' global bound.
	tail := 4
	if data[0] == snapFormatRawV3 {
		tail = 8
	}
	data = data[1:]
	if len(data) < 4 {
		return snap, errSnapTruncated
	}
	nPages := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if nPages > maxSnapPages || nPages*8 > len(data) {
		return snap, fmt.Errorf("fitingtree: chunk snapshot claims %d pages in %d bytes", nPages, len(data))
	}
	snap.Pages = make([]PageSnap[K, V], nPages)
	// run decodes one counted run of keys and values into arrays of their
	// own, checking key order and NaNs as it fills.
	run := func(data []byte) ([]K, []V, []byte, error) {
		n, data, err := c.decCount(data)
		if err != nil {
			return nil, nil, nil, err
		}
		ks, data, err := c.key.decodeRun(n, data)
		if err != nil {
			return nil, nil, nil, err
		}
		if err = verifyKeys(ks); err != nil {
			return nil, nil, nil, err
		}
		vs, data, err := c.val.decodeRun(n, data)
		return ks, vs, data, err
	}
	for i := range snap.Pages {
		p := &snap.Pages[i]
		var err error
		if p.Seg.Start, data, err = c.key.Decode(data); err != nil {
			return snap, err
		}
		if p.Seg.Start != p.Seg.Start {
			return snap, errSnapNaN
		}
		if len(data) < 24 {
			return snap, errSnapTruncated
		}
		p.Seg.StartPos = int(int64(binary.LittleEndian.Uint64(data)))
		p.Seg.Count = int(int64(binary.LittleEndian.Uint64(data[8:])))
		p.Seg.Slope = math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
		data = data[24:]
		if p.Keys, p.Vals, data, err = run(data); err != nil {
			return snap, err
		}
		if p.BufKeys, p.BufVals, data, err = run(data); err != nil {
			return snap, err
		}
		if len(data) < tail {
			return snap, errSnapTruncated
		}
		p.Deletes = int(binary.LittleEndian.Uint32(data))
		if tail == 8 {
			p.WErr = int(binary.LittleEndian.Uint32(data[4:]))
		}
		data = data[tail:]
	}
	if len(data) != 0 {
		return snap, fmt.Errorf("fitingtree: chunk snapshot carries %d trailing bytes", len(data))
	}
	// run checked ordering and NaNs for every page on this path.
	snap.KeysVerified = true
	return snap, nil
}

// decCount reads one u32 element count, bounding it by the remaining
// bytes (every element costs at least one byte on the wire).
func (c *SnapCodec[K, V]) decCount(data []byte) (int, []byte, error) {
	if len(data) < 4 {
		return 0, nil, errSnapTruncated
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > len(data) {
		return 0, nil, fmt.Errorf("fitingtree: chunk snapshot claims %d elements in %d bytes", n, len(data))
	}
	return n, data, nil
}
