package fitingtree

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"fitingtree/internal/core"
)

// This file frames single write operations as WAL record payloads:
//
//	op byte | key | value (inserts and value deletes only)
//
// The key and every value with a raw form are written by the element codec
// (core.Elem), with two rules of the WAL's own for the value, which ends
// the record: a string value runs to the end of the record with no length
// prefix, and a bool value is one byte. A value type without a raw form is
// one self-describing gob stream per record — bulkier, but the WAL holds
// only the un-checkpointed tail, so compactness matters less than never
// silently failing on an exotic V.

// Op codes: the write path's one op type (Optimistic.apply switches on
// them) and the first byte of a WAL record.
const (
	walOpInsert      byte = 1
	walOpDelete      byte = 2
	walOpDeleteValue byte = 3
)

// opNames names the write ops in panics.
var opNames = [...]string{walOpInsert: "Insert", walOpDelete: "Delete", walOpDeleteValue: "DeleteValue"}

// opCodec converts between (op, key, value) and WAL record payloads for
// one concrete K, V instantiation.
type opCodec[K Key, V any] struct {
	key core.Elem[K]
	val core.Elem[V]
}

// newOpCodec resolves the element codecs of K and V once.
func newOpCodec[K Key, V any]() opCodec[K, V] {
	return opCodec[K, V]{key: core.NewElem[K](), val: core.NewElem[V]()}
}

// appendValue appends v's wire form to buf.
func (c *opCodec[K, V]) appendValue(buf []byte, v V) ([]byte, error) {
	switch {
	case c.val.IsString():
		return c.val.AppendBytes(buf, v), nil
	case c.val.IsBool():
		// The low byte of the bool's word.
		return c.val.Append(buf, v)[:len(buf)+1], nil
	case c.val.Raw():
		return c.val.Append(buf, v), nil
	}
	return appendGob(buf, v)
}

// decodeValue inverts appendValue over the record's value bytes.
func (c *opCodec[K, V]) decodeValue(data []byte) (v V, err error) {
	switch {
	case c.val.IsString():
		return c.val.FromBytes(data), nil
	case c.val.IsBool():
		if len(data) != 1 {
			return v, fmt.Errorf("fitingtree: wal bool value of %d bytes", len(data))
		}
		var word [8]byte
		word[0] = data[0]
		v, _, err = c.val.Decode(word[:])
		return v, err
	case c.val.Raw():
		if v, data, err = c.val.Decode(data); err == nil && len(data) != 0 {
			err = fmt.Errorf("fitingtree: wal value carries %d trailing bytes", len(data))
		}
		return v, err
	}
	return decodeGob[V](data)
}

// appendGob appends v as one gob stream, the fallback for a value type
// without a raw form. It is a function of its own so that only this path
// moves v to the heap.
func appendGob[V any](buf []byte, v V) ([]byte, error) {
	sink := bytes.NewBuffer(buf)
	if err := gob.NewEncoder(sink).Encode(&v); err != nil {
		return nil, fmt.Errorf("fitingtree: wal value encode: %w", err)
	}
	return sink.Bytes(), nil
}

// decodeGob inverts appendGob.
func decodeGob[V any](data []byte) (V, error) {
	var v V
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return v, fmt.Errorf("fitingtree: wal value decode: %w", err)
	}
	return v, nil
}

// encodeOp appends one WAL record payload to buf (a caller that logs op
// after op passes the same buffer, emptied, and allocates nothing).
// Insert and value-delete records carry the value; anonymous deletes stop
// after the key.
func (c *opCodec[K, V]) encodeOp(buf []byte, op byte, k K, v V) ([]byte, error) {
	buf = c.key.Append(append(buf, op), k)
	if op == walOpInsert || op == walOpDeleteValue {
		return c.appendValue(buf, v)
	}
	return buf, nil
}

// decodeOp parses one WAL record payload. Anonymous delete records carry
// no value; the zero V is returned for them.
func (c *opCodec[K, V]) decodeOp(payload []byte) (op byte, k K, v V, err error) {
	if len(payload) < 1 {
		return 0, k, v, fmt.Errorf("fitingtree: wal record of %d bytes is too short", len(payload))
	}
	op = payload[0]
	var rest []byte
	if k, rest, err = c.key.Decode(payload[1:]); err != nil {
		return op, k, v, fmt.Errorf("fitingtree: wal record key: %w", err)
	}
	switch op {
	case walOpInsert, walOpDeleteValue:
		v, err = c.decodeValue(rest)
	case walOpDelete:
		if len(rest) != 0 {
			err = fmt.Errorf("fitingtree: delete record carries %d trailing bytes", len(rest))
		}
	default:
		err = fmt.Errorf("fitingtree: unknown wal op %d", op)
	}
	if k != k {
		// A NaN key would corrupt the sorted-delta invariant on replay
		// exactly as it would on the write path (which panics on it).
		err = fmt.Errorf("fitingtree: wal record carries NaN key")
	}
	return op, k, v, err
}
