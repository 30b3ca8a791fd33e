package fitingtree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
)

// This file encodes single write operations for the WAL. A record is
//
//	op byte | key bytes | value bytes (inserts and value deletes only)
//
// Key is a ~-constrained generic, so the key's underlying kind is resolved
// once per codec with reflection and cached; integers round-trip through
// their two's-complement bits as a fixed 8-byte field, floats through
// math.Float64bits (exact for float32 as well, since float32 -> float64 is
// lossless), and string kinds as a u32 length prefix plus bytes. Values of
// numeric, bool, and string kinds use the same compact paths; any other
// value type falls back to a self-describing gob stream per record —
// bulkier, but the WAL holds only the un-checkpointed tail, so compactness
// matters less than never silently failing on an exotic V.

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
	ktype reflect.Type
	kkind reflect.Kind
	vkind reflect.Kind
}

// newOpCodec resolves the kinds of K and V once.
func newOpCodec[K Key, V any]() opCodec[K, V] {
	kt := reflect.TypeOf((*K)(nil)).Elem()
	vt := reflect.TypeOf((*V)(nil)).Elem()
	return opCodec[K, V]{ktype: kt, kkind: kt.Kind(), vkind: vt.Kind()}
}

// appendKey appends k's wire form: a fixed 8-byte field for numeric
// kinds, a u32 length prefix plus bytes for string kinds.
func (c *opCodec[K, V]) appendKey(buf []byte, k K) []byte {
	rv := reflect.ValueOf(k)
	switch c.kkind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(rv.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(buf, rv.Uint())
	case reflect.String:
		s := rv.String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...)
	default:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(rv.Float()))
	}
}

// decodeKey inverts appendKey, returning the bytes past the key field.
func (c *opCodec[K, V]) decodeKey(data []byte) (K, []byte, error) {
	rv := reflect.New(c.ktype).Elem()
	if c.kkind == reflect.String {
		if len(data) < 4 {
			var zero K
			return zero, nil, fmt.Errorf("fitingtree: wal record of %d bytes is too short", len(data)+1)
		}
		l := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if l < 0 || len(data) < l {
			var zero K
			return zero, nil, fmt.Errorf("fitingtree: wal record key claims %d bytes, %d remain", l, len(data))
		}
		rv.SetString(string(data[:l]))
		return rv.Interface().(K), data[l:], nil
	}
	if len(data) < 8 {
		var zero K
		return zero, nil, fmt.Errorf("fitingtree: wal record of %d bytes is too short", len(data)+1)
	}
	b := binary.LittleEndian.Uint64(data)
	switch c.kkind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		rv.SetInt(int64(b))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		rv.SetUint(b)
	default:
		rv.SetFloat(math.Float64frombits(b))
	}
	return rv.Interface().(K), data[8:], nil
}

// appendValue appends v's wire form to buf.
func (c *opCodec[K, V]) appendValue(buf []byte, v V) ([]byte, error) {
	rv := reflect.ValueOf(v)
	switch c.vkind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(rv.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(buf, rv.Uint()), nil
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(rv.Float())), nil
	case reflect.Bool:
		b := byte(0)
		if rv.Bool() {
			b = 1
		}
		return append(buf, b), nil
	case reflect.String:
		return append(buf, rv.String()...), nil
	default:
		var sink bytes.Buffer
		if err := gob.NewEncoder(&sink).Encode(&v); err != nil {
			return nil, fmt.Errorf("fitingtree: wal value encode: %w", err)
		}
		return append(buf, sink.Bytes()...), nil
	}
}

// decodeValue inverts appendValue over the record's value bytes.
func (c *opCodec[K, V]) decodeValue(data []byte) (V, error) {
	var v V
	rv := reflect.ValueOf(&v).Elem()
	fixed := func(n int) error {
		if len(data) != n {
			return fmt.Errorf("fitingtree: wal value of %d bytes, want %d", len(data), n)
		}
		return nil
	}
	switch c.vkind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if err := fixed(8); err != nil {
			return v, err
		}
		rv.SetInt(int64(binary.LittleEndian.Uint64(data)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if err := fixed(8); err != nil {
			return v, err
		}
		rv.SetUint(binary.LittleEndian.Uint64(data))
	case reflect.Float32, reflect.Float64:
		if err := fixed(8); err != nil {
			return v, err
		}
		rv.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
	case reflect.Bool:
		if err := fixed(1); err != nil {
			return v, err
		}
		rv.SetBool(data[0] == 1)
	case reflect.String:
		rv.SetString(string(data))
	default:
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
			return v, fmt.Errorf("fitingtree: wal value decode: %w", err)
		}
	}
	return v, nil
}

// encodeOp appends one WAL record payload to buf (a caller that logs op
// after op passes the same buffer, emptied, and allocates nothing).
// Insert and value-delete records carry the value; anonymous deletes stop
// after the key.
func (c *opCodec[K, V]) encodeOp(buf []byte, op byte, k K, v V) ([]byte, error) {
	buf = append(buf, op)
	buf = c.appendKey(buf, k)
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
	if k, rest, err = c.decodeKey(payload[1:]); err != nil {
		return op, k, v, err
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
