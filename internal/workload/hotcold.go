package workload

import (
	"math/rand"

	"fitingtree/internal/num"
)

// HotCold draws n operation keys from the sorted base keys with a
// hot/cold skew: a hotFrac share of the draws falls inside a contiguous
// hot range covering a hotSpan fraction of the elements and starting at
// the hotAt element quantile; the remaining draws are uniform over all
// of base. hotFrac 1 yields hot-range-only draws, hotFrac 0 pure
// uniform. It models concentrated access patterns (most lookups against
// a small working set over a large cold key space). Deterministic per
// seed.
func HotCold[K num.Key](base []K, n int, hotAt, hotSpan, hotFrac float64, seed int64) []K {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := HotRange(len(base), hotAt, hotSpan)
	out := make([]K, n)
	for i := range out {
		if rng.Float64() < hotFrac {
			out[i] = base[lo+rng.Intn(hi-lo)]
		} else {
			out[i] = base[rng.Intn(len(base))]
		}
	}
	return out
}

// HotRange returns the half-open element index range [lo, hi) of the hot
// range HotCold draws from: hotSpan of n elements starting at the hotAt
// quantile, clamped to stay inside [0, n) and never empty.
func HotRange(n int, hotAt, hotSpan float64) (lo, hi int) {
	lo = int(hotAt * float64(n))
	span := int(hotSpan * float64(n))
	if span < 1 {
		span = 1
	}
	if lo > n-span {
		lo = n - span
	}
	if lo < 0 {
		lo = 0
	}
	hi = lo + span
	if hi > n {
		hi = n
	}
	return lo, hi
}
