package core

import (
	"encoding/binary"
	"fmt"
)

// This file is the top-level manifest codec for the sharded durability
// protocol: one blob, committed atomically by the pager's dual-superblock
// epoch flip, that names every shard's checkpoint (blob chain heads), WAL
// replay cursor, and fence key. Because the whole cut lives in one blob
// behind one commit record, recovery always loads a coherent epoch — all
// shards from cut N, never a mix of cuts.
//
// The codec is deliberately independent of the key type: fence keys
// arrive already encoded as opaque byte strings (the facade's WAL key
// codec produces them), so the same manifest format serves every K. All
// integers are little-endian; every variable-length field carries a
// length prefix that the decoder bounds-checks before allocating, so a
// corrupted or adversarial manifest is rejected instead of driving a
// multi-gigabyte allocation. The manifest is the only record of a
// rebalance: the flip that commits it carries the new Generation, and
// nothing else on disk says whether a migration landed.

// shardManifestMagic marks a sharded manifest blob ("FSHM").
const shardManifestMagic = 0x4653484d

// manifestMaxShards bounds the decoded shard count; it exists only to cap
// allocations on corrupt input (real deployments run a few dozen shards).
const manifestMaxShards = 1 << 16

// manifestMaxChunks bounds the decoded per-shard chunk count, same role.
const manifestMaxChunks = 1 << 24

// manifestMaxFence bounds one encoded fence key's byte length.
const manifestMaxFence = 1 << 20

// ShardCut is one shard's slice of a cross-shard checkpoint cut.
type ShardCut struct {
	// ReplayFrom is the first WAL LSN of this shard's log not folded into
	// the checkpoint: recovery replays records with LSN >= ReplayFrom.
	ReplayFrom uint64
	// Chunks holds the blob head page id of every chain chunk, in chain
	// order (page ids are the pager's, widened to uint64 on the wire).
	Chunks []uint64
}

// ShardManifest is the decoded top-level checkpoint manifest: the whole
// sharded facade's durable state at one epoch.
type ShardManifest struct {
	// Generation numbers the fence layout: every rebalance increments it,
	// and per-shard WAL file names embed it, so a recovery never replays a
	// previous generation's records through the new fences.
	Generation uint64
	// Options is the tree configuration every shard was built with.
	Options Options
	// Fences holds the encoded fence keys (len(Shards)-1 of them, strictly
	// increasing in key order): shard i owns keys in [Fences[i-1],
	// Fences[i]).
	Fences [][]byte
	// Shards holds one cut per shard, in fence order.
	Shards []ShardCut
}

// appendBytes appends a u32 length prefix plus the bytes.
func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// takeBytes reads a u32-length-prefixed field, bounds-checked against max.
func takeBytes(data []byte, max int) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("core: manifest truncated in length prefix")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > max {
		return nil, nil, fmt.Errorf("core: manifest field of %d bytes exceeds limit %d", n, max)
	}
	if len(data) < n {
		return nil, nil, fmt.Errorf("core: manifest field claims %d bytes, %d remain", n, len(data))
	}
	return data[:n], data[n:], nil
}

// takeU64 reads one little-endian u64.
func takeU64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("core: manifest truncated in u64 field")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// appendOptions appends the tree options as six fixed u64 fields. Words 2
// to 5 are reserved: they held the retired Fanout, FillFactor, Search and
// Router options, stay in place so the format does not move, are written
// as zero and are ignored on read (a store saved with those options set
// still opens).
func appendOptions(buf []byte, o Options) []byte {
	for _, w := range [6]int{o.Error, o.BufferSize, 0, 0, 0, 0} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(w)))
	}
	return buf
}

// decodeOptions inverts appendOptions and validates the result through the
// same normalization construction uses, so a corrupted options block is
// rejected here instead of panicking later.
func decodeOptions(data []byte) (Options, []byte, error) {
	var raw [6]uint64
	var err error
	for i := range raw {
		if raw[i], data, err = takeU64(data); err != nil {
			return Options{}, nil, err
		}
	}
	o := Options{
		Error:      int(int64(raw[0])),
		BufferSize: int(int64(raw[1])),
	}
	if _, err := o.withDefaults(); err != nil {
		return Options{}, nil, fmt.Errorf("core: manifest options invalid: %w", err)
	}
	return o, data, nil
}

// EncodeShardManifest serializes m. The caller stores the blob in a
// checksummed page chain, so the manifest itself carries no CRC.
func EncodeShardManifest(m ShardManifest) []byte {
	buf := make([]byte, 0, 64+len(m.Shards)*32)
	buf = binary.LittleEndian.AppendUint32(buf, shardManifestMagic)
	buf = binary.LittleEndian.AppendUint64(buf, m.Generation)
	buf = appendOptions(buf, m.Options)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	for _, f := range m.Fences {
		buf = appendBytes(buf, f)
	}
	for _, sc := range m.Shards {
		buf = binary.LittleEndian.AppendUint64(buf, sc.ReplayFrom)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sc.Chunks)))
		for _, head := range sc.Chunks {
			buf = binary.LittleEndian.AppendUint64(buf, head)
		}
	}
	return buf
}

// DecodeShardManifest parses and validates a manifest blob. Every length
// is bounds-checked before allocation and the shard/fence counts must be
// coherent, so recovery fails cleanly on a corrupted manifest rather than
// assembling a facade with misrouted shards.
func DecodeShardManifest(data []byte) (ShardManifest, error) {
	var m ShardManifest
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != shardManifestMagic {
		return m, fmt.Errorf("core: not a shard manifest (bad magic)")
	}
	data = data[4:]
	var err error
	if m.Generation, data, err = takeU64(data); err != nil {
		return m, err
	}
	if m.Options, data, err = decodeOptions(data); err != nil {
		return m, err
	}
	if len(data) < 4 {
		return m, fmt.Errorf("core: manifest truncated in shard count")
	}
	shards := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if shards < 1 || shards > manifestMaxShards {
		return m, fmt.Errorf("core: manifest claims %d shards", shards)
	}
	m.Fences = make([][]byte, shards-1)
	for i := range m.Fences {
		var f []byte
		if f, data, err = takeBytes(data, manifestMaxFence); err != nil {
			return m, err
		}
		m.Fences[i] = append([]byte(nil), f...)
	}
	m.Shards = make([]ShardCut, shards)
	for i := range m.Shards {
		if m.Shards[i].ReplayFrom, data, err = takeU64(data); err != nil {
			return m, err
		}
		if len(data) < 4 {
			return m, fmt.Errorf("core: manifest truncated in chunk count")
		}
		chunks := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if chunks > manifestMaxChunks {
			return m, fmt.Errorf("core: manifest shard %d claims %d chunks", i, chunks)
		}
		if len(data) < 8*chunks {
			return m, fmt.Errorf("core: manifest shard %d chunk list truncated", i)
		}
		m.Shards[i].Chunks = make([]uint64, chunks)
		for j := range m.Shards[i].Chunks {
			m.Shards[i].Chunks[j] = binary.LittleEndian.Uint64(data)
			data = data[8:]
		}
	}
	if len(data) != 0 {
		return m, fmt.Errorf("core: manifest carries %d trailing bytes", len(data))
	}
	return m, nil
}
