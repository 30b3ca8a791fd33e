package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestSearchStrategiesWithMutations drives the one window search through
// inserts, deletes and lookups at three error bounds. A window holds about
// 2ε+1 keys, so windowSeek strides by its minimum step of 2 at ε 16 and by
// width/16, about 8 and 32 keys, at ε 64 and 256. The subtests keep the
// names of the retired search strategies; the test floor tracks them by
// name.
func TestSearchStrategiesWithMutations(t *testing.T) {
	for _, c := range []struct {
		name string
		err  int
	}{{"binary", 16}, {"linear", 64}, {"exponential", 256}} {
		t.Run(c.name, func(t *testing.T) { testSearchWithMutations(t, c.err) })
	}
}

func testSearchWithMutations(t *testing.T, errBound int) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	vals := make([]int, len(keys))
	tr, err := BulkLoad(keys, vals, Options{Error: errBound, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	present := map[uint64]int{}
	for _, k := range keys {
		present[k]++
	}
	for i := 0; i < 20_000; i++ {
		k := uint64(rng.Intn(20_000))
		switch i % 3 {
		case 0:
			tr.Insert(k, i)
			present[k]++
		case 1:
			if tr.Delete(k) != (present[k] > 0) {
				t.Fatalf("delete mismatch at %d", k)
			}
			if present[k] > 0 {
				present[k]--
			}
		case 2:
			if _, ok := tr.Lookup(k); ok != (present[k] > 0) {
				t.Fatalf("lookup mismatch at %d", k)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: the in-page search primitives return sort.Search's lower bound
// on random sorted slices (empty, one key and duplicates included), probe
// points and starting positions, over the whole slice and over any window
// that contains the answer; the two upper bounds — branching and
// branch-free — agree with it and with each other.
func TestQuickSearchPrimitivesAgree(t *testing.T) {
	f := func(raw []uint16, probesRaw []uint16, atRaw, loRaw, hiRaw uint16) bool {
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r % 300) // duplicates likely
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		n := len(keys)
		for _, pr := range probesRaw {
			k := uint64(pr % 300)
			want := sort.Search(n, func(i int) bool { return keys[i] >= k })
			// A window [lo, hi) whose closure holds the answer, as seek's does.
			lo, hi := want-int(loRaw)%(want+1), want+int(hiRaw)%(n-want+1)
			for _, w := range [][2]int{{0, n}, {lo, hi}} {
				at := w[0] + int(atRaw)%(w[1]-w[0]+1)
				if lowerBound(keys, w[0], w[1], k) != want {
					return false
				}
				if windowSeek(keys, w[0], w[1], at, k) != want {
					return false
				}
			}
			if i, ok := findKey(keys, k); i != want || ok != (want < n && keys[want] == k) {
				return false
			}
			if upperBound(keys, k) != sort.Search(n, func(i int) bool { return keys[i] > k }) {
				return false
			}
			// The batch kernel's branch-free bound is the same function,
			// on the whole slice and on its empty and one-key prefixes.
			for _, m := range []int{0, min(1, n), n} {
				if boundFree(keys[:m], k) != upperBound(keys[:m], k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
