// Package num defines the key constraint shared by every index structure
// in this repository and small helpers for interpolation arithmetic.
//
// FITing-Tree models an index as a monotonically increasing function from
// key to position and approximates it with piece-wise linear functions.
// That splits the key contract in two:
//
//   - exact ordering (Go's native < and == on the key type), which every
//     correctness decision uses — search, routing, tombstone matching,
//     invariant checks;
//   - an approximate weakly monotone projection Approx(k) float64, used
//     only for segment slope and interpolation arithmetic.
//
// Approx need not be injective: the segmentation algorithms verify
// positions by comparison, never by trusting floats, so Approx collisions
// (distinct keys with equal projections) can only loosen a predicted
// position — they never violate the error bound or return a wrong result.
// This is what lets ordered byte strings (see the keycodec package) join
// the numeric column types as first-class keys.
package num

import (
	"encoding/binary"
	"unsafe"
)

// Key is the set of column types an index can be built over: the ordered
// numerics plus ~string, whose native comparison is lexicographic byte
// order. String keys are projected to float64 via their leading 8 bytes
// (see Approx), which is weakly monotone — good enough for interpolation,
// while every exactness-bearing comparison uses the native ordering.
type Key interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64 | ~string
}

// Numeric is the subset of Key with exact numeric conversion semantics.
// Helpers that need real arithmetic on key values (not just an
// interpolation projection) constrain on Numeric.
//
// Conversion to float64 is exact for all float64 values and for integers
// with magnitude below 2^53; beyond that interpolation slopes lose a few
// low-order bits of precision, which only loosens the predicted position by
// a sub-integer amount and never violates the error bound enforced by the
// segmentation algorithms (they verify positions, not floats).
type Numeric interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Approx projects a key to float64 for slope and interpolation
// arithmetic. The projection is weakly monotone: a <= b implies
// Approx(a) <= Approx(b). For numeric keys it is the exact float64
// conversion; for string keys it is StringApprox of the leading bytes.
// Collisions are harmless by the package contract above.
func Approx[K Key](k K) float64 {
	switch v := any(k).(type) {
	case int:
		return float64(v)
	case int8:
		return float64(v)
	case int16:
		return float64(v)
	case int32:
		return float64(v)
	case int64:
		return float64(v)
	case uint:
		return float64(v)
	case uint8:
		return float64(v)
	case uint16:
		return float64(v)
	case uint32:
		return float64(v)
	case uint64:
		return float64(v)
	case float32:
		return float64(v)
	case float64:
		return v
	case string:
		return StringApprox(v)
	}
	return approxSlow(k)
}

// ApproxInto projects keys into dst[:len(keys)] and returns that slice:
// Approx of every key at one type switch per call, where Approx pays one
// per key. Segmentation's per-key loops project a block of keys at a time
// through it. dst must hold len(keys) values.
func ApproxInto[K Key](dst []float64, keys []K) []float64 {
	dst = dst[:len(keys)]
	switch ks := any(keys).(type) {
	case []int:
		toFloats(dst, ks)
	case []int8:
		toFloats(dst, ks)
	case []int16:
		toFloats(dst, ks)
	case []int32:
		toFloats(dst, ks)
	case []int64:
		toFloats(dst, ks)
	case []uint:
		toFloats(dst, ks)
	case []uint8:
		toFloats(dst, ks)
	case []uint16:
		toFloats(dst, ks)
	case []uint32:
		toFloats(dst, ks)
	case []uint64:
		toFloats(dst, ks)
	case []float32:
		toFloats(dst, ks)
	case []float64:
		copy(dst, ks)
	case []string:
		for i, s := range ks {
			dst[i] = StringApprox(s)
		}
	default:
		for i, k := range keys {
			dst[i] = approxSlow(k)
		}
	}
	return dst
}

// toFloats is ApproxInto's loop for one builtin numeric type.
func toFloats[K Numeric](dst []float64, keys []K) {
	for i, k := range keys {
		dst[i] = float64(k)
	}
}

// StringApprox is the weakly monotone float64 projection of a string key:
// its first 8 bytes read as a big-endian uint64 (missing bytes are zero).
// Strings sharing an 8-byte prefix collide, which degrades interpolation
// but never correctness.
func StringApprox(s string) float64 {
	return float64(StringPrefix(s))
}

// StringPrefix reads the first 8 bytes of s as a big-endian uint64
// (missing bytes are zero). It is weakly monotone — StringPrefix(a) <
// StringPrefix(b) implies a < b — so an unequal prefix pair decides a
// string comparison with one integer compare; only equal prefixes need
// the full byte-wise comparison. The hot search loops use it to avoid a
// runtime string-compare call per probe on ordered-bytes keys.
func StringPrefix(s string) uint64 {
	if len(s) >= 8 {
		// One 8-byte load (the compiler combines BigEndian.Uint64's byte
		// loads); the unsafe view is read-only and never outlives s. The
		// equivalent shift-or chain on s directly is too large for the
		// inliner, and this runs once per probe of every search loop.
		return binary.BigEndian.Uint64(unsafe.Slice(unsafe.StringData(s), 8))
	}
	return stringPrefixShort(s)
}

// stringPrefixShort pads strings shorter than 8 bytes with trailing
// zeros; split out so StringPrefix's fixed-width fast path stays
// inlinable in the search loops.
func stringPrefixShort(s string) uint64 {
	var u uint64
	for i := 0; i < len(s); i++ {
		u |= uint64(s[i]) << (56 - 8*i)
	}
	return u
}
