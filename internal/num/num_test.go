package num

import (
	"math"
	"testing"
)

// approxIntoMatches checks ApproxInto against Approx key by key.
func approxIntoMatches[K Key](t *testing.T, keys []K) {
	t.Helper()
	dst := make([]float64, len(keys)+3)
	got := ApproxInto(dst, keys)
	if len(got) != len(keys) {
		t.Fatalf("%T: ApproxInto returned %d values for %d keys", keys, len(got), len(keys))
	}
	for i, k := range keys {
		if got[i] != Approx(k) {
			t.Fatalf("%T: ApproxInto[%d] = %v, Approx = %v", keys, i, got[i], Approx(k))
		}
	}
}

func TestApproxIntoMatchesApprox(t *testing.T) {
	type named uint32 // not a builtin slice type: the reflection fallback
	approxIntoMatches(t, []int{-3, 0, 7})
	approxIntoMatches(t, []int8{-128, 127})
	approxIntoMatches(t, []int16{-300, 300})
	approxIntoMatches(t, []int32{math.MinInt32, math.MaxInt32})
	approxIntoMatches(t, []int64{math.MinInt64, -1, math.MaxInt64})
	approxIntoMatches(t, []uint{0, 1 << 40})
	approxIntoMatches(t, []uint8{0, 255})
	approxIntoMatches(t, []uint16{0, 65535})
	approxIntoMatches(t, []uint32{0, math.MaxUint32})
	approxIntoMatches(t, []uint64{0, 1<<53 + 1, math.MaxUint64})
	approxIntoMatches(t, []float32{-1.5, 0, 3.25})
	approxIntoMatches(t, []float64{-1e300, 0, 1e300})
	approxIntoMatches(t, []string{"", "a", "abcdefgh", "abcdefghZZZ"})
	approxIntoMatches(t, []named{1, 2, 99})
	approxIntoMatches(t, []uint64(nil))
}
