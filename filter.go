package fitingtree

import (
	"hash/maphash"
	"sync/atomic"
)

// keySeed seeds every delta layer's key hash; one seed per process, so two
// layers agree on a key's bits.
var keySeed = maphash.MakeSeed()

// keyHash is the hash a delta layer's filter is probed and set with. Keys
// equal under == hash equal: ±0 and named key types included.
func keyHash[K Key](k K) uint64 { return maphash.Comparable(keySeed, k) }

// minFilterKeys is the capacity of the filter a fresh active delta starts
// with.
const minFilterKeys = 256

// keyFilter is a delta layer's set-only membership filter: a register-blocked
// Bloom filter (each key's three bits fall in one 64-bit word), 16 bits per
// key of capacity, about 0.8 % false positives when full. A nil filter answers
// "maybe" to everything. Words are only ever Or'ed, so the versions of the
// active delta can share one filter: a reader holding an older version sees
// a superset of its keys' bits, and a "no" is always exact.
type keyFilter []atomic.Uint64

// capacity returns the number of keys f was sized for.
func (f keyFilter) capacity() int { return 4 * len(f) }

// slot returns the word of f that h addresses and the bits h sets in it.
func (f keyFilter) slot(h uint64) (*atomic.Uint64, uint64) {
	return &f[(h>>32)*uint64(len(f))>>32], 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63)
}

// add sets h's bits.
func (f keyFilter) add(h uint64) {
	w, bits := f.slot(h)
	w.Or(bits)
}

// mayHave reports whether a key hashing to h may have been added; false is
// exact.
func (f keyFilter) mayHave(h uint64) bool {
	if len(f) == 0 {
		return true
	}
	w, bits := f.slot(h)
	return w.Load()&bits == bits
}
