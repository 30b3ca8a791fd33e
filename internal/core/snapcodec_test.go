package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fitingtree/internal/num"
)

type narrowKey uint16

// wordChunk is a one-page format-3 chunk with no insert buffer whose start
// key, keys and values are the given raw words.
func wordChunk(start uint64, keys, vals []uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte{snapFormatRawV3}, 1)
	b = le.AppendUint64(b, start)
	b = le.AppendUint64(le.AppendUint64(le.AppendUint64(b, 0), uint64(len(keys))), 0)
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, w := range slices.Concat(keys, vals) {
		b = le.AppendUint64(b, w)
	}
	return le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0), 0), 0)
}

// decodeAs decodes a chunk blob under (K, V).
func decodeAs[K num.Key, V any](blob []byte) error {
	c := NewSnapCodec[K, V]()
	_, err := c.Decode(blob)
	return err
}

// TestSnapCodecRejectsNonCanonical: a field no encoder writes — one that
// would not re-encode to the same bytes — fails the chunk instead of
// decoding to a value that differs from what the bytes say.
func TestSnapCodecRejectsNonCanonical(t *testing.T) {
	wide := uint64(1<<32 | 5) // fits no 32-bit or narrower kind
	tenth := math.Float64bits(0.1)
	if err := decodeAs[int8, bool](wordChunk(5, []uint64{5, 6}, []uint64{0, 1})); err != nil {
		t.Fatalf("the canonical chunk the cases below corrupt: %v", err)
	}
	for _, c := range []struct {
		name string
		dec  func([]byte) error
		blob []byte
	}{
		{"bool value 2", decodeAs[uint64, bool], wordChunk(5, []uint64{5, 6}, []uint64{0, 2})},
		{"int8 key", decodeAs[int8, uint64], wordChunk(5, []uint64{5, wide}, []uint64{0, 0})},
		{"int8 start key", decodeAs[int8, uint64], wordChunk(wide, []uint64{5}, []uint64{0})},
		{"int32 key", decodeAs[int32, uint64], wordChunk(5, []uint64{wide}, []uint64{0})},
		{"named uint16 key", decodeAs[narrowKey, uint64], wordChunk(1, []uint64{1, 1<<16 | 2}, []uint64{0, 0})},
		{"int32 value", decodeAs[uint64, int32], wordChunk(5, []uint64{5}, []uint64{wide})},
		{"uint32 value", decodeAs[uint64, uint32], wordChunk(5, []uint64{5}, []uint64{1 << 32})},
		{"float32 key", decodeAs[float32, uint64], wordChunk(0, []uint64{0, tenth}, []uint64{0, 0})},
		{"float32 value", decodeAs[uint64, float32], wordChunk(5, []uint64{5}, []uint64{tenth})},
	} {
		if err := c.dec(c.blob); err == nil {
			t.Errorf("%s: %x decoded without error", c.name, c.blob)
		}
	}
}

// FuzzSnapCodec feeds arbitrary bytes to the chunk decoder under (uint64,
// uint64) and (string, string), seeded with the golden blobs. Decode never
// panics, and a raw blob never allocates more than a bounded multiple of
// its own size (the page-count and element-count bounds). A decodable
// format-3 blob re-encodes to identical bytes; any other decodable blob
// (format 1, or a gob chunk whose snapshot the raw format can hold)
// re-encodes to a blob that decodes to an equal snapshot.
func FuzzSnapCodec(f *testing.F) {
	for _, c := range goldenChunks {
		if b, err := hex.DecodeString(c.want); err == nil {
			f.Add(b)
		}
	}
	for _, s := range []string{goldenFormat1U64, goldenFormat1Str, goldenGobU64I8} {
		b, _ := hex.DecodeString(s)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSnapCodec[uint64, uint64](t, data)
		fuzzSnapCodec[string, string](t, data)
	})
}

// fuzzSnapCodec checks one instantiation's half of FuzzSnapCodec's
// contract.
func fuzzSnapCodec[K num.Key, V any](t *testing.T, data []byte) {
	c := NewSnapCodec[K, V]()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := c.Decode(data)
	runtime.ReadMemStats(&after)
	if len(data) > 0 && data[0] != snapFormatGob {
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	}
	if err != nil {
		return
	}
	again, err := c.Encode(snap)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if data[0] == snapFormatRawV3 {
		if !bytes.Equal(again, data) {
			t.Fatalf("%x re-encodes as %x", data, again)
		}
		return
	}
	if validateSnap(0, snap) != nil && len(snap.Pages) > 0 {
		return // a gob chunk assembly would reject: no raw form holds it
	}
	for _, p := range snap.Pages {
		if uint64(p.Deletes) > math.MaxUint32 || uint64(p.WErr) > math.MaxUint32 {
			return
		}
	}
	back, err := c.Decode(again)
	if err != nil || !snapsEqual(back, snap) {
		t.Fatalf("%x re-encodes as %x, which decodes as %+v (%v)", data, again, back, err)
	}
}

type wordKey int64

// checkDecodeRun decodes vals' raw form with decodeRun and with the
// element loop (make + decodeInto): the elements, their re-encoding and the
// bytes past the run agree, the run owns an array of exactly len(vals)
// that the wire bytes do not alias, and every truncation fails both ways
// with the same error.
func checkDecodeRun[T any](t *testing.T, vals []T) {
	t.Helper()
	e := NewElem[T]()
	n := len(vals)
	wire := append(e.appendAll(nil, vals), 0xEE, 0xFF) // two bytes past the run
	got, rest, err := e.decodeRun(n, wire)
	want := make([]T, n)
	wantRest, wantErr := e.decodeInto(want, wire)
	if err != nil || wantErr != nil {
		t.Fatalf("%T: decodeRun %v, loop %v", vals, err, wantErr)
	}
	if len(got) != n || cap(got) != n || !bytes.Equal(rest, wantRest) {
		t.Fatalf("%T: len %d cap %d rest %x, want %d elements and rest %x", vals, len(got), cap(got), rest, n, wantRest)
	}
	enc := e.appendAll(nil, got)
	if !bytes.Equal(enc, e.appendAll(nil, want)) || !bytes.Equal(enc, wire[:len(wire)-2]) {
		t.Fatalf("%T: decodeRun and the loop decode differently", vals)
	}
	clear(wire)
	if !bytes.Equal(e.appendAll(nil, got), enc) {
		t.Fatalf("%T: the decoded run aliases the wire bytes", vals)
	}
	wire = e.appendAll(nil, vals)
	for cut := range len(wire) {
		_, _, err := e.decodeRun(n, wire[:cut])
		_, wantErr := e.decodeInto(make([]T, n), wire[:cut])
		if err == nil || err != wantErr {
			t.Fatalf("%T: run cut to %d of %d bytes: decodeRun %v, loop %v", vals, cut, len(wire), err, wantErr)
		}
	}
}

// TestDecodeRunEqualsLoopDecode runs checkDecodeRun over every raw kind —
// the one-copy path takes the 8-byte ones on a little-endian host, the
// loop every other — at run lengths 0, 1 and 37.
func TestDecodeRunEqualsLoopDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 37} {
		words := make([]uint64, n)
		for i := range words {
			words[i] = rng.Uint64()
		}
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), rng.NormFloat64()}[i%4]
		}
		checkDecodeRun(t, words)
		checkDecodeRun(t, floats)
		checkDecodeRun(t, mapRun(words, func(w uint64) int64 { return int64(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) int { return int(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) uint { return uint(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) uintptr { return uintptr(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) wordKey { return wordKey(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) int8 { return int8(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) int16 { return int16(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) int32 { return int32(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) uint8 { return uint8(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) uint16 { return uint16(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) narrowKey { return narrowKey(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) uint32 { return uint32(w) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) bool { return w&1 == 1 }))
		checkDecodeRun(t, mapRun(floats, func(f float64) float32 { return float32(f) }))
		checkDecodeRun(t, mapRun(words, func(w uint64) string { return fmt.Sprint(w)[:w%5] }))
	}
}

// mapRun returns f of every element of xs.
func mapRun[X, Y any](xs []X, f func(X) Y) []Y {
	ys := make([]Y, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	return ys
}
