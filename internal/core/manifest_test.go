package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// reservedOptionWords are the byte offsets, in an encoded manifest, of the
// option words that held the retired Fanout, FillFactor, Search and Router
// options (after the u32 magic and the u64 generation, words 2 to 5 of six).
var reservedOptionWords = [4]int{12 + 2*8, 12 + 3*8, 12 + 4*8, 12 + 5*8}

// zeroReserved returns data with its reserved option words cleared: the
// canonical form of a manifest a parent build may have written.
func zeroReserved(data []byte) []byte {
	out := append([]byte(nil), data...)
	for _, at := range reservedOptionWords {
		clear(out[at : at+8])
	}
	return out
}

// TestManifestReservedOptionWords pins that old stores still decode: a
// manifest whose option block carries Fanout = 32, FillFactor = 0.5,
// Router = 1 and Search = 1 or 2 (SearchLinear or SearchExponential;
// hand-encoded here, what a build with those options wrote) decodes to the
// same manifest as one without them, and re-encodes with the four words
// zero and every other byte in place.
func TestManifestReservedOptionWords(t *testing.T) {
	want := sampleManifest()
	canon := EncodeShardManifest(want)
	for _, at := range reservedOptionWords {
		if binary.LittleEndian.Uint64(canon[at:]) != 0 {
			t.Fatalf("encoder wrote a non-zero reserved word at offset %d", at)
		}
	}
	for _, search := range []uint64{1, 2} {
		old := append([]byte(nil), canon...)
		binary.LittleEndian.PutUint64(old[reservedOptionWords[0]:], 32)
		binary.LittleEndian.PutUint64(old[reservedOptionWords[1]:], math.Float64bits(0.5))
		binary.LittleEndian.PutUint64(old[reservedOptionWords[2]:], search)
		binary.LittleEndian.PutUint64(old[reservedOptionWords[3]:], 1)
		got, err := DecodeShardManifest(old)
		if err != nil {
			t.Fatalf("decode of a manifest with the retired options set (Search %d): %v", search, err)
		}
		if plain, _ := DecodeShardManifest(canon); got.Options != want.Options || !reflect.DeepEqual(got, plain) {
			t.Fatalf("retired option words changed the decoded manifest: got %+v want %+v", got, plain)
		}
		if !bytes.Equal(EncodeShardManifest(got), canon) {
			t.Fatal("re-encoding did not produce the canonical manifest")
		}
	}
}

func sampleManifest() ShardManifest {
	return ShardManifest{
		Generation: 7,
		Options: Options{
			Error:      64,
			BufferSize: 8,
		},
		Fences: [][]byte{{0, 0, 1}, {0, 0, 9, 255}},
		Shards: []ShardCut{
			{ReplayFrom: 12, Chunks: []uint64{3, 9, 14}},
			{ReplayFrom: 0, Chunks: nil},
			{ReplayFrom: 1 << 40, Chunks: []uint64{42}},
		},
	}
}

func TestShardManifestRoundTrip(t *testing.T) {
	want := sampleManifest()
	got, err := DecodeShardManifest(EncodeShardManifest(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Generation != want.Generation || !reflect.DeepEqual(got.Fences, want.Fences) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	if got.Options != want.Options {
		t.Fatalf("options mismatch: got %+v want %+v", got.Options, want.Options)
	}
	if len(got.Shards) != len(want.Shards) {
		t.Fatalf("shard count mismatch: got %d want %d", len(got.Shards), len(want.Shards))
	}
	for i := range want.Shards {
		if got.Shards[i].ReplayFrom != want.Shards[i].ReplayFrom {
			t.Fatalf("shard %d replayFrom mismatch", i)
		}
		if len(got.Shards[i].Chunks) != len(want.Shards[i].Chunks) {
			t.Fatalf("shard %d chunk count mismatch", i)
		}
		for j := range want.Shards[i].Chunks {
			if got.Shards[i].Chunks[j] != want.Shards[i].Chunks[j] {
				t.Fatalf("shard %d chunk %d mismatch", i, j)
			}
		}
	}
}

func TestShardManifestSingleShard(t *testing.T) {
	m := ShardManifest{
		Generation: 1,
		Options:    Options{Error: 32},
		Shards:     []ShardCut{{ReplayFrom: 5, Chunks: []uint64{1, 2}}},
	}
	got, err := DecodeShardManifest(EncodeShardManifest(m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Fences) != 0 || len(got.Shards) != 1 {
		t.Fatalf("single-shard manifest decoded as %+v", got)
	}
}

func TestShardManifestRejectsCorruption(t *testing.T) {
	good := EncodeShardManifest(sampleManifest())
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":  good[:len(good)-5],
		"trailing":   append(append([]byte(nil), good...), 0),
		"one byte":   {0x4d},
		"just magic": good[:4],
	}
	for name, data := range cases {
		if _, err := DecodeShardManifest(data); err == nil {
			t.Errorf("%s: decode accepted corrupt manifest", name)
		}
	}
	// Flipping any single byte after the magic must never panic, and for
	// bytes inside the options block must either fail or decode to valid
	// options (the decoder re-validates through withDefaults).
	for i := 4; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		m, err := DecodeShardManifest(mut)
		if err != nil {
			continue
		}
		if _, err := m.Options.withDefaults(); err != nil {
			t.Fatalf("flip byte %d: decoder returned invalid options %+v", i, m.Options)
		}
	}
}

// FuzzManifest drives the manifest decoder with arbitrary bytes: it may
// not panic or over-allocate, and anything DecodeShardManifest accepts must
// re-encode to the identical byte string (the codec is canonical) — up to
// the four reserved option words, which are ignored on read and written as
// zero.
func FuzzManifest(f *testing.F) {
	f.Add(EncodeShardManifest(sampleManifest()))
	// A single-writer store's manifest: one shard, no fences.
	f.Add(EncodeShardManifest(ShardManifest{
		Options: Options{Error: 64, BufferSize: 8},
		Shards:  []ShardCut{{ReplayFrom: 5, Chunks: []uint64{1}}},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeShardManifest(data); err == nil {
			if !bytes.Equal(EncodeShardManifest(m), zeroReserved(data)) {
				t.Fatalf("manifest decode/encode not canonical")
			}
		}
	})
}
