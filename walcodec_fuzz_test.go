package fitingtree

import (
	"bytes"
	"testing"

	"fitingtree/internal/wal"
)

// FuzzOpCodec feeds arbitrary bytes to the WAL op codec — the only record
// decoder on the only recovery path. The input is read as a sequence of
// one-byte-length-prefixed record payloads, under instantiations that
// reach every form of the element codec: (uint64, uint64), (string,
// string), (int8, bool), (float32, float32) and a named uint64 key with a
// named string value. The contract under fuzzing: decodeOp either
// errors or yields a record that re-encodes to the identical bytes (so it
// never invents or over-allocates state the payload does not carry) —
// never a panic — and the decodable records, replayed as a WAL tail onto
// a small tree, leave a structurally valid tree.
func FuzzOpCodec(f *testing.F) {
	frame := func(payloads ...[]byte) []byte {
		var buf []byte
		for _, p := range payloads {
			buf = append(append(buf, byte(len(p))), p...)
		}
		return buf
	}
	must := func(p []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	nums, strs := newOpCodec[uint64, uint64](), newOpCodec[string, string]()
	narrow, floats := newOpCodec[int8, bool](), newOpCodec[float32, float32]()
	named := newOpCodec[goldenU64, goldenStr]()
	seeds := [][][]byte{{
		must(nums.encodeOp(nil, walOpInsert, 40, 7)),
		must(nums.encodeOp(nil, walOpDelete, 40, 0)),
		must(nums.encodeOp(nil, walOpDeleteValue, 80, 80)),
	}, {
		must(strs.encodeOp(nil, walOpInsert, "k040", "seven")),
		must(strs.encodeOp(nil, walOpDelete, "k040", "")),
		must(strs.encodeOp(nil, walOpDeleteValue, "k080", "k080")),
	}, {
		must(narrow.encodeOp(nil, walOpInsert, -3, true)),
		must(narrow.encodeOp(nil, walOpDelete, -3, false)),
		must(narrow.encodeOp(nil, walOpDeleteValue, 5, false)),
	}, {
		must(floats.encodeOp(nil, walOpInsert, -0.1, 2.5)),
		must(floats.encodeOp(nil, walOpDelete, -0.1, 0)),
		must(floats.encodeOp(nil, walOpDeleteValue, 8, 8)),
	}, {
		must(named.encodeOp(nil, walOpInsert, 40, "seven")),
		must(named.encodeOp(nil, walOpDelete, 40, "")),
		must(named.encodeOp(nil, walOpDeleteValue, 80, "k080")),
	}}
	f.Add([]byte(nil))
	for _, set := range seeds {
		for _, p := range set {
			f.Add(frame(p))
		}
		f.Add(frame(set...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			payloads = append(payloads, data[1:1+n])
			data = data[1+n:]
		}
		numKeys := []uint64{0, 40, 80, 80, 1 << 40}
		fuzzOpCodec(t, nums, payloads, numKeys, numKeys)
		strKeys := []string{"", "k040", "k080", "k080", "zz"}
		fuzzOpCodec(t, strs, payloads, strKeys, strKeys)
		fuzzOpCodec(t, narrow, payloads, []int8{-128, -3, 5, 5, 127}, []bool{true, false, false, true, true})
		floatKeys := []float32{-1e30, -0.1, 8, 8, 3.4e38}
		fuzzOpCodec(t, floats, payloads, floatKeys, floatKeys)
		fuzzOpCodec(t, named, payloads, []goldenU64{0, 40, 80, 80, 1 << 40}, []goldenStr{"", "k040", "k080", "k080", "zz"})
	})
}

// fuzzOpCodec checks one instantiation's half of FuzzOpCodec's contract
// over a tree bulk-loaded from (keys, vals).
func fuzzOpCodec[K Key, V any](t *testing.T, codec opCodec[K, V], payloads [][]byte, keys []K, vals []V) {
	var records []wal.Record
	for _, p := range payloads {
		op, k, v, err := codec.decodeOp(p)
		if err != nil {
			continue
		}
		again, err := codec.encodeOp(nil, op, k, v)
		if err != nil || !bytes.Equal(again, p) {
			t.Fatalf("record %x re-encodes as %x (%v)", p, again, err)
		}
		records = append(records, wal.Record{LSN: uint64(len(records)), Payload: p})
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 4})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := replayTail(codec, records, 0)
	if err != nil {
		t.Fatalf("replay of decodable records: %v", err)
	}
	if layer != nil {
		tree = tree.MergeCOW(layer.ops())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("replayed tree: %v", err)
	}
}
