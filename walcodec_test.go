package fitingtree

import (
	"encoding/binary"
	"math"
	"testing"
)

type u16Key uint16

// TestOpCodecAllocs: logging a numeric write into the log's reused buffer,
// and decoding it on replay, allocate nothing.
func TestOpCodecAllocs(t *testing.T) {
	c := newOpCodec[uint64, uint64]()
	buf := make([]byte, 0, 64)
	var err error
	if n := testing.AllocsPerRun(100, func() {
		buf, err = c.encodeOp(buf[:0], walOpInsert, 1<<40, 7)
	}); n != 0 || err != nil {
		t.Fatalf("encode: %v allocations (%v)", n, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _, _, err = c.decodeOp(buf)
	}); n != 0 || err != nil {
		t.Fatalf("decode: %v allocations (%v)", n, err)
	}
}

// TestOpCodecRejectsNonCanonical: a field no encoder writes — one that
// would not re-encode to the same bytes — fails the record (or the fence)
// instead of decoding to a value that differs from what the bytes say.
func TestOpCodecRejectsNonCanonical(t *testing.T) {
	word := func(w uint64) []byte { return binary.LittleEndian.AppendUint64(nil, w) }
	record := func(op byte, fields ...[]byte) []byte {
		p := []byte{op}
		for _, f := range fields {
			p = append(p, f...)
		}
		return p
	}
	wide := uint64(1<<32 | 5) // fits no 32-bit or narrower kind
	for _, c := range []struct {
		name string
		dec  func([]byte) error
		data []byte
	}{
		{"bool value 2", decodeWith[uint64, bool], record(walOpInsert, word(1), []byte{2})},
		{"bool value ff", decodeWith[uint64, bool], record(walOpDeleteValue, word(1), []byte{0xff})},
		{"int8 key", decodeWith[int8, int8], record(walOpDelete, word(wide))},
		{"int8 key 128", decodeWith[int8, int8], record(walOpDelete, word(128))},
		{"int32 key", decodeWith[int32, uint64], record(walOpDelete, word(wide))},
		{"named uint16 key", decodeWith[u16Key, uint64], record(walOpDelete, word(1<<16))},
		{"uint32 value", decodeWith[uint64, uint32], record(walOpInsert, word(1), word(wide))},
		{"int8 value", decodeWith[uint64, int8], record(walOpInsert, word(1), word(0x80))},
		{"float32 key", decodeWith[float32, uint64], record(walOpDelete, word(math.Float64bits(0.1)))},
		{"float32 value", decodeWith[uint64, float32], record(walOpInsert, word(1), word(math.Float64bits(0.1)))},
		{"int8 fence", fenceWith[int8], word(wide)},
		{"float32 fence", fenceWith[float32], word(math.Float64bits(0.1))},
	} {
		if err := c.dec(c.data); err == nil {
			t.Errorf("%s: %x decoded without error", c.name, c.data)
		}
	}
}

// decodeWith decodes one record payload under (K, V).
func decodeWith[K Key, V any](p []byte) error {
	c := newOpCodec[K, V]()
	_, _, _, err := c.decodeOp(p)
	return err
}

// fenceWith decodes one manifest fence under K.
func fenceWith[K Key](f []byte) error {
	c := newOpCodec[K, struct{}]()
	_, err := decodeFences(&c, [][]byte{f})
	return err
}
