package fitingtree

import (
	"bytes"
	"testing"

	"fitingtree/internal/wal"
)

// FuzzOpCodec feeds arbitrary bytes to the WAL op codec — the only record
// decoder on the only recovery path. The input is read as a sequence of
// one-byte-length-prefixed record payloads, under both a numeric and a
// string instantiation. The contract under fuzzing: decodeOp either
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
	numSeeds := [][]byte{
		must(nums.encodeOp(nil, walOpInsert, 40, 7)),
		must(nums.encodeOp(nil, walOpDelete, 40, 0)),
		must(nums.encodeOp(nil, walOpDeleteValue, 80, 80)),
	}
	strSeeds := [][]byte{
		must(strs.encodeOp(nil, walOpInsert, "k040", "seven")),
		must(strs.encodeOp(nil, walOpDelete, "k040", "")),
		must(strs.encodeOp(nil, walOpDeleteValue, "k080", "k080")),
	}
	f.Add([]byte(nil))
	for _, p := range append(numSeeds, strSeeds...) {
		f.Add(frame(p))
	}
	f.Add(frame(numSeeds...))
	f.Add(frame(strSeeds...))

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
	if tree, err = replayTail(tree, codec, records, 0); err != nil {
		t.Fatalf("replay of decodable records: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("replayed tree: %v", err)
	}
}
