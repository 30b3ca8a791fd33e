package fitingtree

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"math"
	"testing"
)

// The WAL record payloads and manifest fence bytes of every key kind,
// pinned as hex. Every store on disk is made of these bytes, so a codec
// change must leave each row exactly as it is.

type (
	goldenU64 uint64
	goldenI64 int64
	goldenStr string
	goldenRow struct {
		A int
		B string
	}
)

// walGolden returns, as hex, the insert, delete and delete-value payloads
// of (k1, v) and the fence bytes of k1 and k2, after checking that each
// decodes back to what was encoded.
func walGolden[K Key, V any](t *testing.T, k1, k2 K, v V) []string {
	t.Helper()
	c := newOpCodec[K, V]()
	var out []string
	for _, op := range []byte{walOpInsert, walOpDelete, walOpDeleteValue} {
		p, err := c.encodeOp(nil, op, k1, v)
		if err != nil {
			t.Fatal(err)
		}
		want := v
		if op == walOpDelete {
			var zero V
			want = zero
		}
		gop, gk, gv, err := c.decodeOp(p)
		if err != nil || gop != op || gk != k1 || any(gv) != any(want) {
			t.Fatalf("op %d: %x decodes as (%d, %v, %v, %v)", op, p, gop, gk, gv, err)
		}
		out = append(out, hex.EncodeToString(p))
	}
	fences := encodeFences(&c, []K{k1, k2})
	back, err := decodeFences(&c, fences)
	if err != nil || len(back) != 2 || back[0] != k1 || back[1] != k2 {
		t.Fatalf("fences %x decode as %v (%v)", fences, back, err)
	}
	for _, f := range fences {
		out = append(out, hex.EncodeToString(f))
	}
	return out
}

func TestWALGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		got  func(*testing.T) []string
		want []string
	}{
		{"int", func(t *testing.T) []string { return walGolden[int, int](t, -5, 1<<40, -7) },
			[]string{"01fbfffffffffffffff9ffffffffffffff", "02fbffffffffffffff", "03fbfffffffffffffff9ffffffffffffff", "fbffffffffffffff", "0000000000010000"}},
		{"int8", func(t *testing.T) []string { return walGolden[int8, int8](t, -128, 127, -1) },
			[]string{"0180ffffffffffffffffffffffffffffff", "0280ffffffffffffff", "0380ffffffffffffffffffffffffffffff", "80ffffffffffffff", "7f00000000000000"}},
		{"int16", func(t *testing.T) []string { return walGolden[int16, int16](t, -300, 32767, -32768) },
			[]string{"01d4feffffffffffff0080ffffffffffff", "02d4feffffffffffff", "03d4feffffffffffff0080ffffffffffff", "d4feffffffffffff", "ff7f000000000000"}},
		{"int32", func(t *testing.T) []string { return walGolden[int32, int32](t, math.MinInt32, 70000, -2) },
			[]string{"0100000080fffffffffeffffffffffffff", "0200000080ffffffff", "0300000080fffffffffeffffffffffffff", "00000080ffffffff", "7011010000000000"}},
		{"int64", func(t *testing.T) []string { return walGolden[int64, int64](t, math.MinInt64, math.MaxInt64, -9) },
			[]string{"010000000000000080f7ffffffffffffff", "020000000000000080", "030000000000000080f7ffffffffffffff", "0000000000000080", "ffffffffffffff7f"}},
		{"uint", func(t *testing.T) []string { return walGolden[uint, uint](t, 3, math.MaxUint, 1<<63) },
			[]string{"0103000000000000000000000000000080", "020300000000000000", "0303000000000000000000000000000080", "0300000000000000", "ffffffffffffffff"}},
		{"uint8", func(t *testing.T) []string { return walGolden[uint8, uint8](t, 0, 255, 200) },
			[]string{"010000000000000000c800000000000000", "020000000000000000", "030000000000000000c800000000000000", "0000000000000000", "ff00000000000000"}},
		{"uint16", func(t *testing.T) []string { return walGolden[uint16, uint16](t, 1, 65535, 40000) },
			[]string{"010100000000000000409c000000000000", "020100000000000000", "030100000000000000409c000000000000", "0100000000000000", "ffff000000000000"}},
		{"uint32", func(t *testing.T) []string { return walGolden[uint32, uint32](t, 7, math.MaxUint32, 1<<31) },
			[]string{"0107000000000000000000008000000000", "020700000000000000", "0307000000000000000000008000000000", "0700000000000000", "ffffffff00000000"}},
		{"uint64", func(t *testing.T) []string { return walGolden[uint64, uint64](t, 40, math.MaxUint64, 7) },
			[]string{"0128000000000000000700000000000000", "022800000000000000", "0328000000000000000700000000000000", "2800000000000000", "ffffffffffffffff"}},
		{"float32", func(t *testing.T) []string { return walGolden[float32, float32](t, -0.1, 3.4e38, 1.5) },
			[]string{"01000000a09999b9bf000000000000f83f", "02000000a09999b9bf", "03000000a09999b9bf000000000000f83f", "000000a09999b9bf", "000000c033f9ef47"}},
		{"float64", func(t *testing.T) []string { return walGolden[float64, float64](t, -2.5, math.Inf(1), 0.1) },
			[]string{"0100000000000004c09a9999999999b93f", "0200000000000004c0", "0300000000000004c09a9999999999b93f", "00000000000004c0", "000000000000f07f"}},
		{"string", func(t *testing.T) []string { return walGolden[string, string](t, "", "k\x00\xff", "seven") },
			[]string{"0100000000736576656e", "0200000000", "0300000000736576656e", "00000000", "030000006b00ff"}},
		{"named-uint64", func(t *testing.T) []string { return walGolden[goldenU64, goldenU64](t, 1, 1<<60, 99) },
			[]string{"0101000000000000006300000000000000", "020100000000000000", "0301000000000000006300000000000000", "0100000000000000", "0000000000000010"}},
		{"named-string", func(t *testing.T) []string { return walGolden[goldenStr, goldenStr](t, "a", "b", "val") },
			[]string{"01010000006176616c", "020100000061", "03010000006176616c", "0100000061", "0100000062"}},
		{"uint64/bool-true", func(t *testing.T) []string { return walGolden[uint64, bool](t, 5, 6, true) },
			[]string{"01050000000000000001", "020500000000000000", "03050000000000000001", "0500000000000000", "0600000000000000"}},
		{"uint64/bool-false", func(t *testing.T) []string { return walGolden[uint64, bool](t, 5, 6, false) },
			[]string{"01050000000000000000", "020500000000000000", "03050000000000000000", "0500000000000000", "0600000000000000"}},
		{"uint64/named-int64", func(t *testing.T) []string { return walGolden[uint64, goldenI64](t, 5, 6, -3) },
			[]string{"010500000000000000fdffffffffffffff", "020500000000000000", "030500000000000000fdffffffffffffff", "0500000000000000", "0600000000000000"}},
		{"uint64/empty-string", func(t *testing.T) []string { return walGolden[uint64, string](t, 5, 6, "") },
			[]string{"010500000000000000", "020500000000000000", "030500000000000000", "0500000000000000", "0600000000000000"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := c.got(t)
			if len(got) != len(c.want) {
				t.Fatalf("got %q, want %q", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("field %d: got %s, want %s", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestWALGoldenGobValue pins the per-record gob fallback's framing: op |
// key | one gob stream of the value. The stream itself is not pinned as
// hex: gob numbers the types it meets in the order a process meets them.
func TestWALGoldenGobValue(t *testing.T) {
	c := newOpCodec[uint64, goldenRow]()
	v := goldenRow{A: -4, B: "row"}
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(&v); err != nil {
		t.Fatal(err)
	}
	key, _ := hex.DecodeString("0500000000000000")
	for _, op := range []byte{walOpInsert, walOpDeleteValue} {
		p, err := c.encodeOp(nil, op, 5, v)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte{op}, key...), stream.Bytes()...)
		if !bytes.Equal(p, want) {
			t.Fatalf("op %d: got %x, want %x", op, p, want)
		}
		if gop, gk, gv, err := c.decodeOp(p); err != nil || gop != op || gk != 5 || gv != v {
			t.Fatalf("op %d decodes as (%d, %d, %+v, %v)", op, gop, gk, gv, err)
		}
	}
	p, err := c.encodeOp(nil, walOpDelete, 5, v)
	if err != nil || !bytes.Equal(p, append([]byte{walOpDelete}, key...)) {
		t.Fatalf("delete: got %x (%v)", p, err)
	}
}
