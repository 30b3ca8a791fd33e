package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"slices"

	"fitingtree/internal/num"
)

// This file implements the chunk-snapshot wire codec used by checkpoints.
// gob is correct but costs a type-negotiation handshake and a reflection
// walk per chunk blob, which made recovery decode time rival a full bulk
// rebuild. The raw format below writes fixed-width little-endian fields
// directly — keys through their integer or float64 bit patterns (exact in
// both directions for every num.Key instantiation), values through a
// per-type fast path resolved once at codec construction. Value types
// without a fast path (structs, slices, ...) fall back to gob for the
// whole chunk, keyed by the leading format byte, so every V remains
// supported.

// Snapshot wire format discriminators (first byte of an encoded chunk).
const (
	snapFormatRaw   byte = 1 // fixed-width little-endian fields
	snapFormatGob   byte = 2 // gob-encoded ChunkSnap
	snapFormatRawV3 byte = 3 // raw + a u32 per-page error bound (WErr)
)

// errSnapTruncated is returned when a raw snapshot ends mid-field.
var errSnapTruncated = fmt.Errorf("fitingtree: chunk snapshot truncated")

// errSnapUnsorted and errSnapNaN reject snapshots whose keys violate the
// tree's ordering invariants. The checks run inside the decode loop while
// each key is still in a register, which is why AssembleChunks can skip
// its own re-scan for raw-decoded chunks (ChunkSnap.KeysVerified).
var (
	errSnapUnsorted = fmt.Errorf("fitingtree: chunk snapshot keys not sorted")
	errSnapNaN      = fmt.Errorf("fitingtree: chunk snapshot contains NaN key")
)

// SnapCodec converts ChunkSnaps to and from checkpoint blobs for one
// concrete (K, V) instantiation. Construct once with NewSnapCodec and
// reuse; the codec itself is stateless and safe for concurrent use.
type SnapCodec[K num.Key, V any] struct {
	// kFixed records that keys encode to exactly 8 bytes (every numeric
	// kind). String keys are length-prefixed variable-width, which
	// disables the arena fast path but keeps the raw format.
	kFixed   bool
	encKeys  func(buf []byte, keys []K) []byte
	fillKeys func(out []K, data []byte) ([]byte, error)
	encVals  func(buf []byte, vals []V) []byte
	decVals  func(data []byte, n int) ([]V, []byte, error)
	// decValsInto fills a pre-allocated slice instead of allocating; set
	// only for fixed 8-byte value encodings, where Decode can carve every
	// page's slices out of two per-chunk arenas.
	decValsInto func(out []V, data []byte) ([]byte, error)
}

// fixedVals builds the value fast path for an element type E that
// round-trips through a uint64 bit pattern. V and E are the same type at
// every call site; the indirection through `any` lets generic code name
// the concrete slice type.
func fixedVals[E any, V any](toBits func(E) uint64, fromBits func(uint64) E) (
	func(buf []byte, vals []V) []byte,
	func(data []byte, n int) ([]V, []byte, error),
	func(out []V, data []byte) ([]byte, error),
) {
	enc := func(buf []byte, vals []V) []byte {
		for _, v := range any(vals).([]E) {
			buf = binary.LittleEndian.AppendUint64(buf, toBits(v))
		}
		return buf
	}
	fill := func(out []E, data []byte) ([]byte, error) {
		if len(data) < 8*len(out) {
			return nil, errSnapTruncated
		}
		for i := range out {
			out[i] = fromBits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return data[8*len(out):], nil
	}
	dec := func(data []byte, n int) ([]V, []byte, error) {
		out := make([]E, n)
		data, err := fill(out, data)
		if err != nil {
			return nil, nil, err
		}
		return any(out).([]V), data, nil
	}
	decInto := func(out []V, data []byte) ([]byte, error) {
		return fill(any(out).([]E), data)
	}
	return enc, dec, decInto
}

// intVals is the fixedVals specialization for 64-bit integer element
// types, whose wire form is the two's-complement bit pattern itself: the
// conversion compiles to a plain load/store loop with no per-element
// function call, which matters when recovery decodes millions of values.
func intVals[E ~int | ~int64 | ~uint | ~uint64, V any]() (
	func(buf []byte, vals []V) []byte,
	func(data []byte, n int) ([]V, []byte, error),
	func(out []V, data []byte) ([]byte, error),
) {
	enc := func(buf []byte, vals []V) []byte {
		for _, v := range any(vals).([]E) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
		}
		return buf
	}
	fill := func(out []E, data []byte) ([]byte, error) {
		if len(data) < 8*len(out) {
			return nil, errSnapTruncated
		}
		for i := range out {
			out[i] = E(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return data[8*len(out):], nil
	}
	dec := func(data []byte, n int) ([]V, []byte, error) {
		out := make([]E, n)
		data, err := fill(out, data)
		if err != nil {
			return nil, nil, err
		}
		return any(out).([]V), data, nil
	}
	decInto := func(out []V, data []byte) ([]byte, error) {
		return fill(any(out).([]E), data)
	}
	return enc, dec, decInto
}

// stringVals builds the value fast path for V = string: u32 length
// prefix + bytes per element.
func stringVals[V any]() (
	func(buf []byte, vals []V) []byte,
	func(data []byte, n int) ([]V, []byte, error),
) {
	enc := func(buf []byte, vals []V) []byte {
		for _, s := range any(vals).([]string) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		return buf
	}
	dec := func(data []byte, n int) ([]V, []byte, error) {
		out := make([]string, n)
		for i := range out {
			if len(data) < 4 {
				return nil, nil, errSnapTruncated
			}
			l := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if l < 0 || len(data) < l {
				return nil, nil, errSnapTruncated
			}
			out[i] = string(data[:l])
			data = data[l:]
		}
		return any(out).([]V), data, nil
	}
	return enc, dec
}

// stringKeys builds the key codec for K = string: u32 length prefix +
// bytes per key, the same wire shape stringVals uses for values.
func stringKeys[K any]() (
	func(buf []byte, keys []K) []byte,
	func(out []K, data []byte) ([]byte, error),
) {
	enc := func(buf []byte, keys []K) []byte {
		for _, s := range any(keys).([]string) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		return buf
	}
	fill := func(out []K, data []byte) ([]byte, error) {
		o := any(out).([]string)
		for i := range o {
			if len(data) < 4 {
				return nil, errSnapTruncated
			}
			l := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if l < 0 || len(data) < l {
				return nil, errSnapTruncated
			}
			o[i] = string(data[:l])
			data = data[l:]
		}
		return data, nil
	}
	return enc, fill
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

// reflectKeys builds the key codec for named key types, whose concrete
// slice type defeats the builtin type switches. Per-element reflection is
// slow but exactly wire-compatible with the builtin codec of the same
// kind, and it only runs for user-defined key types.
func reflectKeys[K num.Key]() (
	func(buf []byte, keys []K) []byte,
	func(out []K, data []byte) ([]byte, error),
	bool,
) {
	kt := reflect.TypeOf((*K)(nil)).Elem()
	switch kt.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		shift := 64 - uint(kt.Bits())
		enc := func(buf []byte, keys []K) []byte {
			for i := range keys {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(reflect.ValueOf(keys[i]).Int()))
			}
			return buf
		}
		fill := func(out []K, data []byte) ([]byte, error) {
			if len(data) < 8*len(out) {
				return nil, errSnapTruncated
			}
			for i := range out {
				x := int64(binary.LittleEndian.Uint64(data[8*i:])) << shift >> shift
				reflect.ValueOf(&out[i]).Elem().SetInt(x)
			}
			return data[8*len(out):], nil
		}
		return enc, fill, true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		mask := ^uint64(0) >> (64 - uint(kt.Bits()))
		enc := func(buf []byte, keys []K) []byte {
			for i := range keys {
				buf = binary.LittleEndian.AppendUint64(buf, reflect.ValueOf(keys[i]).Uint())
			}
			return buf
		}
		fill := func(out []K, data []byte) ([]byte, error) {
			if len(data) < 8*len(out) {
				return nil, errSnapTruncated
			}
			for i := range out {
				reflect.ValueOf(&out[i]).Elem().SetUint(binary.LittleEndian.Uint64(data[8*i:]) & mask)
			}
			return data[8*len(out):], nil
		}
		return enc, fill, true
	case reflect.Float32, reflect.Float64:
		enc := func(buf []byte, keys []K) []byte {
			for i := range keys {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(reflect.ValueOf(keys[i]).Float()))
			}
			return buf
		}
		fill := func(out []K, data []byte) ([]byte, error) {
			if len(data) < 8*len(out) {
				return nil, errSnapTruncated
			}
			for i := range out {
				reflect.ValueOf(&out[i]).Elem().SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
			}
			return data[8*len(out):], nil
		}
		return enc, fill, true
	case reflect.String:
		enc := func(buf []byte, keys []K) []byte {
			for i := range keys {
				s := reflect.ValueOf(keys[i]).String()
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
			return buf
		}
		fill := func(out []K, data []byte) ([]byte, error) {
			for i := range out {
				if len(data) < 4 {
					return nil, errSnapTruncated
				}
				l := int(binary.LittleEndian.Uint32(data))
				data = data[4:]
				if l < 0 || len(data) < l {
					return nil, errSnapTruncated
				}
				reflect.ValueOf(&out[i]).Elem().SetString(string(data[:l]))
				data = data[l:]
			}
			return data, nil
		}
		return enc, fill, false
	}
	panic("fitingtree: key type outside the num.Key constraint")
}

// NewSnapCodec resolves the key and value fast paths once.
func NewSnapCodec[K num.Key, V any]() SnapCodec[K, V] {
	var c SnapCodec[K, V]
	c.kFixed = true
	switch any((*K)(nil)).(type) {
	case *uint64:
		c.encKeys, _, c.fillKeys = intVals[uint64, K]()
	case *int64:
		c.encKeys, _, c.fillKeys = intVals[int64, K]()
	case *int:
		c.encKeys, _, c.fillKeys = intVals[int, K]()
	case *uint:
		c.encKeys, _, c.fillKeys = intVals[uint, K]()
	case *int32:
		c.encKeys, _, c.fillKeys = fixedVals[int32, K](
			func(v int32) uint64 { return uint64(int64(v)) },
			func(b uint64) int32 { return int32(int64(b)) })
	case *uint32:
		c.encKeys, _, c.fillKeys = fixedVals[uint32, K](
			func(v uint32) uint64 { return uint64(v) },
			func(b uint64) uint32 { return uint32(b) })
	case *int16:
		c.encKeys, _, c.fillKeys = fixedVals[int16, K](
			func(v int16) uint64 { return uint64(int64(v)) },
			func(b uint64) int16 { return int16(int64(b)) })
	case *uint16:
		c.encKeys, _, c.fillKeys = fixedVals[uint16, K](
			func(v uint16) uint64 { return uint64(v) },
			func(b uint64) uint16 { return uint16(b) })
	case *int8:
		c.encKeys, _, c.fillKeys = fixedVals[int8, K](
			func(v int8) uint64 { return uint64(int64(v)) },
			func(b uint64) int8 { return int8(int64(b)) })
	case *uint8:
		c.encKeys, _, c.fillKeys = fixedVals[uint8, K](
			func(v uint8) uint64 { return uint64(v) },
			func(b uint64) uint8 { return uint8(b) })
	case *float64:
		c.encKeys, _, c.fillKeys = fixedVals[float64, K](math.Float64bits, math.Float64frombits)
	case *float32:
		c.encKeys, _, c.fillKeys = fixedVals[float32, K](
			func(v float32) uint64 { return math.Float64bits(float64(v)) },
			func(b uint64) float32 { return float32(math.Float64frombits(b)) })
	case *string:
		c.encKeys, c.fillKeys = stringKeys[K]()
		c.kFixed = false
	default:
		c.encKeys, c.fillKeys, c.kFixed = reflectKeys[K]()
	}
	switch any((*V)(nil)).(type) {
	case *uint64:
		c.encVals, c.decVals, c.decValsInto = intVals[uint64, V]()
	case *int64:
		c.encVals, c.decVals, c.decValsInto = intVals[int64, V]()
	case *int:
		c.encVals, c.decVals, c.decValsInto = intVals[int, V]()
	case *uint:
		c.encVals, c.decVals, c.decValsInto = intVals[uint, V]()
	case *int32:
		c.encVals, c.decVals, c.decValsInto = fixedVals[int32, V](
			func(v int32) uint64 { return uint64(int64(v)) },
			func(b uint64) int32 { return int32(int64(b)) })
	case *uint32:
		c.encVals, c.decVals, c.decValsInto = fixedVals[uint32, V](
			func(v uint32) uint64 { return uint64(v) },
			func(b uint64) uint32 { return uint32(b) })
	case *float64:
		c.encVals, c.decVals, c.decValsInto = fixedVals[float64, V](math.Float64bits, math.Float64frombits)
	case *float32:
		c.encVals, c.decVals, c.decValsInto = fixedVals[float32, V](
			func(v float32) uint64 { return math.Float64bits(float64(v)) },
			func(b uint64) float32 { return float32(math.Float64frombits(b)) })
	case *bool:
		c.encVals, c.decVals, c.decValsInto = fixedVals[bool, V](
			func(v bool) uint64 {
				if v {
					return 1
				}
				return 0
			},
			func(b uint64) bool { return b != 0 })
	case *string:
		c.encVals, c.decVals = stringVals[V]()
	}
	return c
}

// encKey appends one key's wire form (the per-page segment start key).
func (c *SnapCodec[K, V]) encKey(buf []byte, k K) []byte {
	var tmp [1]K
	tmp[0] = k
	return c.encKeys(buf, tmp[:])
}

// decKey decodes one key, returning the remaining bytes.
func (c *SnapCodec[K, V]) decKey(data []byte) (K, []byte, error) {
	var tmp [1]K
	data, err := c.fillKeys(tmp[:], data)
	if err != nil {
		var zero K
		return zero, nil, err
	}
	if tmp[0] != tmp[0] {
		var zero K
		return zero, nil, errSnapNaN
	}
	return tmp[0], data, nil
}

// decKeysInto decodes len(out) keys into out, returning the remaining
// bytes. It verifies ordering and NaN-freeness as it fills, so callers
// can mark the snapshot KeysVerified.
func (c *SnapCodec[K, V]) decKeysInto(out []K, data []byte) ([]byte, error) {
	data, err := c.fillKeys(out, data)
	if err != nil {
		return nil, err
	}
	if err := verifyKeys(out); err != nil {
		return nil, err
	}
	return data, nil
}

// decKeys decodes n keys, returning the remaining bytes.
func (c *SnapCodec[K, V]) decKeys(data []byte, n int) ([]K, []byte, error) {
	out := make([]K, n)
	data, err := c.decKeysInto(out, data)
	if err != nil {
		return nil, nil, err
	}
	return out, data, nil
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
	if c.encVals == nil {
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
		buf = c.encKey(buf, p.Seg.Start)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Seg.StartPos)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Seg.Count)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Seg.Slope))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Keys)))
		buf = c.encKeys(buf, p.Keys)
		buf = c.encVals(buf, p.Vals)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.BufKeys)))
		buf = c.encKeys(buf, p.BufKeys)
		buf = c.encVals(buf, p.BufVals)
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
	if c.decVals == nil {
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
	// For fixed-width values a pre-scan sums the element counts so every
	// page's key and value slices can be carved from two arena
	// allocations — recovery decodes thousands of pages, and four small
	// allocations per page dominated its profile. The carved slices are
	// capacity-capped so a later append on one page reallocates instead
	// of stomping its arena neighbor.
	var keyArena []K
	var valArena []V
	if c.decValsInto != nil && c.kFixed {
		if total, ok := rawSnapTotal(data, nPages, tail); ok {
			keyArena = make([]K, total)
			valArena = make([]V, total)
		}
	}
	carve := func(n int) ([]K, []V) {
		ks, vs := keyArena[:n:n], valArena[:n:n]
		keyArena, valArena = keyArena[n:], valArena[n:]
		return ks, vs
	}
	for i := range snap.Pages {
		p := &snap.Pages[i]
		var err error
		if p.Seg.Start, data, err = c.decKey(data); err != nil {
			return snap, err
		}
		if len(data) < 24 {
			return snap, errSnapTruncated
		}
		p.Seg.StartPos = int(int64(binary.LittleEndian.Uint64(data)))
		p.Seg.Count = int(int64(binary.LittleEndian.Uint64(data[8:])))
		p.Seg.Slope = math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
		data = data[24:]

		var n int
		if n, data, err = c.decCount(data); err != nil {
			return snap, err
		}
		if keyArena != nil {
			p.Keys, p.Vals = carve(n)
			if data, err = c.decKeysInto(p.Keys, data); err != nil {
				return snap, err
			}
			if data, err = c.decValsInto(p.Vals, data); err != nil {
				return snap, err
			}
		} else {
			if p.Keys, data, err = c.decKeys(data, n); err != nil {
				return snap, err
			}
			if p.Vals, data, err = c.decVals(data, n); err != nil {
				return snap, err
			}
		}
		if n, data, err = c.decCount(data); err != nil {
			return snap, err
		}
		if keyArena != nil {
			p.BufKeys, p.BufVals = carve(n)
			if data, err = c.decKeysInto(p.BufKeys, data); err != nil {
				return snap, err
			}
			if data, err = c.decValsInto(p.BufVals, data); err != nil {
				return snap, err
			}
		} else {
			if p.BufKeys, data, err = c.decKeys(data, n); err != nil {
				return snap, err
			}
			if p.BufVals, data, err = c.decVals(data, n); err != nil {
				return snap, err
			}
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
	// decKeysInto checked ordering and NaNs for every page on this path.
	snap.KeysVerified = true
	return snap, nil
}

// rawSnapTotal walks a raw snapshot body (past the page count) assuming
// the fixed 8-byte value encoding and returns the total element count
// across all pages, sorted plus buffered. tail is the per-page trailer
// size (4 for format 1, 8 for format 3). ok is false when the walk runs
// off the data — the caller then falls back to the per-page path, whose
// bounds checks produce the precise error.
func rawSnapTotal(data []byte, nPages, tail int) (total int, ok bool) {
	for i := 0; i < nPages; i++ {
		if len(data) < 36 {
			return 0, false
		}
		n := int(binary.LittleEndian.Uint32(data[32:]))
		data = data[36:]
		if n > len(data)/16 {
			return 0, false
		}
		data = data[16*n:]
		total += n
		if len(data) < 4 {
			return 0, false
		}
		n = int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if n > len(data)/16 {
			return 0, false
		}
		data = data[16*n:]
		total += n
		if len(data) < tail {
			return 0, false
		}
		data = data[tail:]
	}
	return total, len(data) == 0
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
