package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"unsafe"
)

// This file is the one wire codec of a single element — a key or a value —
// that WAL records, checkpoint chunks and manifest fences are made of. A
// type's raw form follows from its kind alone, so a named type is written
// exactly as its underlying type:
//
//	integer kinds  u64 little-endian of the sign- or zero-extended value
//	float kinds    u64 little-endian of the float64 bits
//	bool           u64 0 or 1
//	string kinds   u32 little-endian length, then the bytes
//
// Every other kind has no raw form; the caller falls back to gob. Decoding
// accepts only canonical fields, those that re-encode to the same bytes: a
// bool other than 0/1, a u64 that does not fit a narrow integer kind, or
// float64 bits that do not survive the trip through float32 are errors.

// elemKind is a type's raw form, resolved once from its reflect kind. Every
// 64-bit integer kind and float64 share elemWord: their memory is their
// wire word.
type elemKind uint8

const (
	elemNone elemKind = iota
	elemWord
	elemInt8
	elemInt16
	elemInt32
	elemUint8
	elemUint16
	elemUint32
	elemFloat32
	elemBool
	elemString
)

var (
	errElemTruncated = errors.New("fitingtree: element field truncated")
	errElemRange     = errors.New("fitingtree: element field out of range for its kind")
)

// Elem is the wire codec of one element type T. Construct it with NewElem;
// the zero Elem has no raw form. It is a plain value, safe for concurrent
// use.
type Elem[T any] struct{ kind elemKind }

// NewElem resolves T's raw form from its kind.
func NewElem[T any]() Elem[T] {
	t := reflect.TypeFor[T]()
	var k elemKind
	switch t.Kind() { // integers by size in bytes: int and uint follow the platform
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		k = [...]elemKind{1: elemInt8, 2: elemInt16, 4: elemInt32, 8: elemWord}[t.Size()]
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		k = [...]elemKind{1: elemUint8, 2: elemUint16, 4: elemUint32, 8: elemWord}[t.Size()]
	case reflect.Float32:
		k = elemFloat32
	case reflect.Float64:
		k = elemWord
	case reflect.Bool:
		k = elemBool
	case reflect.String:
		k = elemString
	}
	return Elem[T]{k}
}

// Raw reports whether T has a raw form; without one the caller uses gob.
func (e Elem[T]) Raw() bool { return e.kind != elemNone }

// IsString reports whether T is of string kind.
func (e Elem[T]) IsString() bool { return e.kind == elemString }

// IsBool reports whether T is of bool kind.
func (e Elem[T]) IsBool() bool { return e.kind == elemBool }

// Append appends v's raw form to buf. T must have one.
func (e Elem[T]) Append(buf []byte, v T) []byte {
	one := [1]T{v}
	return e.appendAll(buf, one[:])
}

// Decode decodes one element from the front of data and returns the bytes
// past it. T must have a raw form.
func (e Elem[T]) Decode(data []byte) (T, []byte, error) {
	var one [1]T
	data, err := e.decodeInto(one[:], data)
	return one[0], data, err
}

// AppendBytes appends the bytes of v, which is of string kind, without
// the length prefix of its raw form.
func (e Elem[T]) AppendBytes(buf []byte, v T) []byte {
	one := [1]T{v}
	return append(buf, e.strings(one[:])[0]...)
}

// FromBytes returns the element of string kind that holds a copy of b.
func (e Elem[T]) FromBytes(b []byte) T {
	var one [1]T
	e.strings(one[:])[0] = string(b)
	return one[0]
}

// strings views vs, whose T is of string kind, as strings.
func (e Elem[T]) strings(vs []T) []string {
	if e.kind != elemString {
		panic("fitingtree: element type is not of string kind")
	}
	return view[string](vs)
}

// view reinterprets vs as a slice of E, a type with T's memory layout.
func view[E, T any](vs []T) []E {
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
}

// appendAll appends the raw form of every element of vs to buf.
func (e Elem[T]) appendAll(buf []byte, vs []T) []byte {
	switch e.kind {
	case elemWord:
		for _, w := range view[uint64](vs) {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return buf
	case elemInt8:
		return appendInts(buf, view[int8](vs))
	case elemInt16:
		return appendInts(buf, view[int16](vs))
	case elemInt32:
		return appendInts(buf, view[int32](vs))
	case elemUint8, elemBool: // a bool's memory is one byte, 0 or 1
		return appendInts(buf, view[uint8](vs))
	case elemUint16:
		return appendInts(buf, view[uint16](vs))
	case elemUint32:
		return appendInts(buf, view[uint32](vs))
	case elemFloat32:
		for _, f := range view[float32](vs) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(f)))
		}
		return buf
	case elemString:
		for _, s := range view[string](vs) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		return buf
	}
	panic("fitingtree: element type has no raw form")
}

// littleEndian is whether a word's memory is its wire form.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeRun decodes n elements from the front of data into an array of
// their own and returns the bytes past them. On a little-endian host a run
// of elemWord fields is its elements' memory: it is copied once into a
// fresh, so word-aligned, allocation and viewed as []T.
func (e Elem[T]) decodeRun(n int, data []byte) ([]T, []byte, error) {
	if e.kind != elemWord || !littleEndian || n == 0 || len(data) < 8*n {
		out := make([]T, n)
		data, err := e.decodeInto(out, data)
		return out, data, err
	}
	words := bytes.Clone(data[:8*n])
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(words))), n), data[8*n:], nil
}

// decodeInto decodes len(out) elements from the front of data into out and
// returns the bytes past them.
func (e Elem[T]) decodeInto(out []T, data []byte) ([]byte, error) {
	if e.kind == elemString {
		strs := view[string](out)
		for i := range strs {
			if len(data) < 4 {
				return nil, errElemTruncated
			}
			l := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if l < 0 || len(data) < l {
				return nil, errElemTruncated
			}
			strs[i] = string(data[:l])
			data = data[l:]
		}
		return data, nil
	}
	n := 8 * len(out)
	if len(data) < n {
		return nil, errElemTruncated
	}
	words, ok := data[:n], true
	switch e.kind {
	case elemWord:
		w := view[uint64](out)
		for i := range w {
			w[i] = binary.LittleEndian.Uint64(words)
			words = words[8:]
		}
	case elemInt8:
		ok = fillInts(view[int8](out), words, math.MaxInt8)
	case elemInt16:
		ok = fillInts(view[int16](out), words, math.MaxInt16)
	case elemInt32:
		ok = fillInts(view[int32](out), words, math.MaxInt32)
	case elemUint8:
		ok = fillInts(view[uint8](out), words, math.MaxUint8)
	case elemUint16:
		ok = fillInts(view[uint16](out), words, math.MaxUint16)
	case elemUint32:
		ok = fillInts(view[uint32](out), words, math.MaxUint32)
	case elemBool:
		ok = fillInts(view[uint8](out), words, 1)
	case elemFloat32:
		f := view[float32](out)
		for i := range f {
			b := binary.LittleEndian.Uint64(words)
			words = words[8:]
			f[i] = float32(math.Float64frombits(b))
			ok = ok && math.Float64bits(float64(f[i])) == b
		}
	default:
		panic("fitingtree: element type has no raw form")
	}
	if !ok {
		return nil, errElemRange
	}
	return data[n:], nil
}

// narrow is every integer kind whose raw form widens it to a u64.
type narrow interface {
	int8 | int16 | int32 | uint8 | uint16 | uint32
}

// appendInts appends the sign- or zero-extended u64 of every element.
func appendInts[E narrow](buf []byte, xs []E) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(x)))
	}
	return buf
}

// fillInts decodes len(out) words into out, reporting false if one is not
// the extension of an E no greater than limit (which bounds a bool below
// E's own maximum).
func fillInts[E narrow](out []E, words []byte, limit E) bool {
	for i := range out {
		w := binary.LittleEndian.Uint64(words)
		words = words[8:]
		out[i] = E(w)
		if uint64(int64(out[i])) != w || out[i] > limit {
			return false
		}
	}
	return true
}
