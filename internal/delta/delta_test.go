package delta

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"fitingtree/internal/num"
)

// checkInvariants validates one version's structure: keys ascending within
// and across nodes and inside their separators' bounds, 1 <= n <= order in
// every leaf and n <= order in every inner node, every slot at or past n
// the zero value (a vacated value or child must keep nothing alive), size
// equal to the count. The height puts all leaves at one depth.
func checkInvariants[K num.Key, V any](m Map[K, V]) error {
	if m.root == nil {
		if m.size != 0 || m.height != 0 {
			return fmt.Errorf("empty map with size %d, height %d", m.size, m.height)
		}
		return nil
	}
	if m.height < 1 {
		return fmt.Errorf("non-empty map with height %d", m.height)
	}
	var zeroK K
	count := 0
	var prev *K
	checkKeys := func(keys []K, n, depth int, lo, hi *K) error {
		for i, k := range keys[:n] {
			if i > 0 && k <= keys[i-1] {
				return fmt.Errorf("node keys out of order at depth %d", depth)
			}
			if (lo != nil && k < *lo) || (hi != nil && k >= *hi) {
				return fmt.Errorf("key %v outside its separators at depth %d", k, depth)
			}
		}
		for i := n; i < len(keys); i++ {
			if keys[i] != zeroK {
				return fmt.Errorf("key slot %d of %d at depth %d holds %v", i, n, depth, keys[i])
			}
		}
		return nil
	}
	var walk func(p unsafe.Pointer, h, depth int, lo, hi *K) error
	walk = func(p unsafe.Pointer, h, depth int, lo, hi *K) error {
		if h == 1 {
			l := (*leaf[K, V])(p)
			if l.n < 1 || l.n > order {
				return fmt.Errorf("leaf with %d keys at depth %d", l.n, depth)
			}
			if err := checkKeys(l.keys[:], l.n, depth, lo, hi); err != nil {
				return err
			}
			for i := l.n; i < order; i++ {
				if !reflect.ValueOf(&l.vals[i]).Elem().IsZero() {
					return fmt.Errorf("value slot %d of %d at depth %d holds %v", i, l.n, depth, l.vals[i])
				}
			}
			for i := range l.n {
				if prev != nil && l.keys[i] <= *prev {
					return fmt.Errorf("global key order violated at %v", l.keys[i])
				}
				prev = &l.keys[i]
				count++
			}
			return nil
		}
		in := (*inner[K])(p)
		if in.n < 0 || in.n > order {
			return fmt.Errorf("inner node with %d keys at depth %d", in.n, depth)
		}
		if err := checkKeys(in.keys[:], in.n, depth, lo, hi); err != nil {
			return err
		}
		for i, c := range in.kids {
			if (c == nil) != (i > in.n) {
				return fmt.Errorf("inner node with %d keys has child slot %d = %v at depth %d", in.n, i, c, depth)
			}
		}
		for i, c := range in.kids[:in.n+1] {
			clo, chi := lo, hi
			if i > 0 {
				clo = &in.keys[i-1]
			}
			if i < in.n {
				chi = &in.keys[i]
			}
			if err := walk(c, h-1, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(m.root, m.height, 1, nil, nil); err != nil {
		return err
	}
	if count != m.size {
		return fmt.Errorf("size %d but %d entries found", m.size, count)
	}
	return nil
}

// nodes collects every node of a version.
func nodes[K num.Key, V any](m Map[K, V]) map[unsafe.Pointer]bool {
	set := map[unsafe.Pointer]bool{}
	var walk func(p unsafe.Pointer, h int)
	walk = func(p unsafe.Pointer, h int) {
		set[p] = true
		if h > 1 {
			in := (*inner[K])(p)
			for _, c := range in.kids[:in.n+1] {
				walk(c, h-1)
			}
		}
	}
	if m.root != nil {
		walk(m.root, m.height)
	}
	return set
}

// sharedNodes reports how many of m's nodes are pointer-identical to a
// node of o.
func sharedNodes[K num.Key, V any](m, o Map[K, V]) int {
	theirs, shared := nodes(o), 0
	for n := range nodes(m) {
		if theirs[n] {
			shared++
		}
	}
	return shared
}

// height returns the number of levels of a version, 0 when empty.
func height[K num.Key, V any](m Map[K, V]) int { return m.height }

// entry is one key/value pair of a reference model.
type entry[K num.Key] struct {
	k K
	v int
}

// entries walks a version out through Ascend.
func entries[K num.Key](m Map[K, int]) []entry[K] {
	out := []entry[K]{}
	m.Ascend(func(k K, v int) bool { out = append(out, entry[K]{k, v}); return true })
	return out
}

// cowBase bulk-loads a map of n sequential entries.
func cowBase(t *testing.T, n int) Map[uint64, int] {
	t.Helper()
	keys := make([]uint64, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = uint64(i * 2)
		vals[i] = i
	}
	m := FromSorted(keys, vals)
	if err := checkInvariants(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCloneCOWSharesAllNodes pins that a version nothing was written to is
// the same structure: a copy of the value and a Without of an absent key
// share every node with the original.
func TestCloneCOWSharesAllNodes(t *testing.T) {
	m := cowBase(t, 10_000)
	n := len(nodes(m))
	for name, cl := range map[string]Map[uint64, int]{"copy": m, "no-op Without": m.Without(1)} {
		if cl.Len() != m.Len() || len(nodes(cl)) != n {
			t.Fatalf("%s has %d entries in %d nodes, original %d in %d", name, cl.Len(), len(nodes(cl)), m.Len(), n)
		}
		if shared := sharedNodes(cl, m); shared != n {
			t.Fatalf("%s shares %d of %d nodes", name, shared, n)
		}
	}
}

// TestCloneCOWPathCopying pins the path-copying bound: k point writes copy
// at most k·height nodes, and the older version's content is byte-for-byte
// untouched.
func TestCloneCOWPathCopying(t *testing.T) {
	m := cowBase(t, 50_000)
	before := entries(m)

	cl := m
	const muts = 8
	for i := 0; i < muts; i++ {
		cl = cl.With(uint64(i*2+1), -i) // fresh odd keys
	}
	if cl.Len() != m.Len()+muts {
		t.Fatalf("derived Len = %d, want %d", cl.Len(), m.Len()+muts)
	}
	if err := checkInvariants(cl); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(m); err != nil {
		t.Fatalf("original after derived writes: %v", err)
	}

	total := len(nodes(cl))
	shared := sharedNodes(cl, m)
	// Each write copies one root-to-leaf path (plus split fringe).
	if budget := muts * (height(m) + 2); total-shared > budget {
		t.Fatalf("%d point writes copied %d nodes (height %d, budget %d)",
			muts, total-shared, height(m), budget)
	}
	if shared == 0 {
		t.Fatal("derived version shares nothing with the original")
	}

	// Original content unchanged, derived version diverged.
	if after := entries(m); !slices.Equal(after, before) {
		t.Fatalf("original changed: %d -> %d entries", len(before), len(after))
	}
	for i := 0; i < muts; i++ {
		if _, ok := m.Get(uint64(i*2 + 1)); ok {
			t.Fatalf("derived write %d leaked into the original", i*2+1)
		}
		if v, ok := cl.Get(uint64(i*2 + 1)); !ok || v != -i {
			t.Fatalf("derived Get(%d) = %d,%v", i*2+1, v, ok)
		}
	}
}

// TestCloneCOWDeleteAndShift exercises removal and rewriting a suffix of
// the values against a reference model, checking the original never
// changes.
func TestCloneCOWDeleteAndShift(t *testing.T) {
	m := cowBase(t, 20_000)
	before := entries(m)

	cl := m
	rng := rand.New(rand.NewSource(11))
	ref := map[uint64]int{}
	for _, e := range before {
		ref[e.k] = e.v
	}
	for i := 0; i < 2_000; i++ {
		k := uint64(rng.Intn(20_000)) * 2
		next := cl.Without(k)
		if _, ok := ref[k]; ok != (next.Len() == cl.Len()-1) {
			t.Fatalf("Without(%d) disagreed with model", k)
		}
		delete(ref, k)
		cl = next
	}
	// Suffix shift: bump every value >= 15000.
	for _, e := range entries(cl) {
		if e.v >= 15_000 {
			cl = cl.With(e.k, e.v+1)
			ref[e.k] = e.v + 1
		}
	}
	if err := checkInvariants(cl); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(m); err != nil {
		t.Fatalf("original: %v", err)
	}
	if after := entries(m); !slices.Equal(after, before) {
		t.Fatalf("original changed: %d -> %d entries", len(before), len(after))
	}
	if cl.Len() != len(ref) {
		t.Fatalf("derived Len = %d, model %d", cl.Len(), len(ref))
	}
	for k, want := range ref {
		if v, ok := cl.Get(k); !ok || v != want {
			t.Fatalf("derived Get(%d) = %d,%v, want %d", k, v, ok, want)
		}
	}
	// The untouched prefix must still be shared.
	if sharedNodes(cl, m) == 0 {
		t.Fatal("derived version shares nothing after deletes + partial shift")
	}
}

// TestCloneCOWChain pins that versions of versions keep working: each
// generation adds privately and earlier generations stay as they were.
func TestCloneCOWChain(t *testing.T) {
	gens := []Map[uint64, int]{cowBase(t, 5_000)}
	for g := 1; g <= 5; g++ {
		gens = append(gens, gens[g-1].With(uint64(1_000_000+g), g))
	}
	for g, m := range gens {
		if err := checkInvariants(m); err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		if m.Len() != 5_000+g {
			t.Fatalf("gen %d: Len = %d", g, m.Len())
		}
		for i := 1; i <= 5; i++ {
			_, ok := m.Get(uint64(1_000_000 + i))
			if ok != (i <= g) {
				t.Fatalf("gen %d sees key of gen %d: %v", g, i, ok)
			}
		}
	}
}

// TestIterMatchesAscendRange checks the pull cursor against the push scan
// on grown, bulk-loaded and derived versions, from seek keys that are
// present, absent, below the minimum and above the maximum.
func TestIterMatchesAscendRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var grown Map[int, int]
	for i := 0; i < 700; i++ {
		k := rng.Intn(3000) * 2
		grown = grown.With(k, k+1)
	}
	var keys, vals []int
	for _, e := range entries(grown) {
		keys, vals = append(keys, e.k), append(vals, e.v)
	}
	bulk := FromSorted(slices.Clone(keys), slices.Clone(vals))
	cow := bulk
	for i := 0; i < 50; i++ {
		cow = cow.Without(keys[rng.Intn(len(keys))]).With(rng.Intn(3000)*2+1, -1)
	}
	for name, m := range map[string]Map[int, int]{"empty": {}, "grown": grown, "bulk": bulk, "cow": cow} {
		if err := checkInvariants(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, from := range []int{-5, 0, 1, 2, 777, 2999, 3000, 5998, 5999, 7000} {
			var want []entry[int]
			for _, e := range entries(m) {
				if e.k >= from {
					want = append(want, e)
				}
			}
			var it Iter[int, int]
			n := 0
			for it.SeekGE(m, from); it.Valid(); it.Next() {
				if n >= len(want) || want[n] != (entry[int]{it.Key(), it.Value()}) {
					t.Fatalf("%s from %d: entry %d = (%d,%d), want %v", name, from, n, it.Key(), it.Value(), want[min(n, len(want)-1)])
				}
				n++
			}
			if n != len(want) {
				t.Fatalf("%s from %d: cursor yielded %d entries, scan %d", name, from, n, len(want))
			}
		}
	}
	var zero Iter[int, int]
	if zero.Valid() {
		t.Fatal("zero Iter is valid")
	}
}

// version is one map version with the model content it must keep.
type version[K num.Key] struct {
	m    Map[K, int]
	want []entry[K]
}

// find returns k's position in the model and whether it has an entry.
func (v version[K]) find(k K) (int, bool) {
	return slices.BinarySearchFunc(v.want, k, func(e entry[K], k K) int { return cmp.Compare(e.k, k) })
}

// verify re-reads a version in full against its model.
func (v version[K]) verify(t *testing.T, gen, op int) {
	t.Helper()
	n := 0
	v.m.Ascend(func(k K, val int) bool {
		if n >= len(v.want) || v.want[n] != (entry[K]{k, val}) {
			t.Fatalf("version %d after op %d: entry %d = (%v,%d) diverged from model", gen, op, n, k, val)
		}
		n++
		return true
	})
	if n != len(v.want) || v.m.Len() != n {
		t.Fatalf("version %d after op %d: %d entries, Len %d, model %d", gen, op, n, v.m.Len(), len(v.want))
	}
}

// probe checks Get and SeekGE for k against the model.
func (v version[K]) probe(t *testing.T, k K) {
	t.Helper()
	i, found := v.find(k)
	got, ok := v.m.Get(k)
	if ok != found || (ok && got != v.want[i].v) {
		t.Fatalf("Get(%v) = %d,%v, model found=%v", k, got, ok, found)
	}
	var it Iter[K, int]
	it.SeekGE(v.m, k)
	for j := i; j < min(i+20, len(v.want)); j++ {
		if !it.Valid() || (entry[K]{it.Key(), it.Value()}) != v.want[j] {
			t.Fatalf("SeekGE(%v): entry %d off the model", k, j-i)
		}
		it.Next()
	}
	if i+20 >= len(v.want) && it.Valid() {
		t.Fatalf("SeekGE(%v): cursor runs past the model's end", k)
	}
}

// runModel drives random With / Without / Get / SeekGE against a sorted
// slice. Every version ever derived is kept, and every one of them is
// re-read in full after every later write. The key space is small enough
// for whole leaves, inner nodes and the root to empty and regrow.
func runModel[K num.Key](t *testing.T, seed int64, keyOf func(i int) K) {
	const space, ops = 600, 660
	rng := rand.New(rand.NewSource(seed))
	cur := version[K]{want: []entry[K]{}}
	all := []version[K]{cur}
	maxHeight := 0
	for op := 0; op < ops; op++ {
		// Grow first, then mostly drain from the low end (whole leaves,
		// then whole inner nodes, empty), then mix.
		k := keyOf(rng.Intn(space))
		remove := rng.Intn(2) == 0
		switch {
		case op < ops/2:
			remove = rng.Intn(16) == 0
		case op < 5*ops/6 && len(cur.want) > 0 && rng.Intn(8) != 0:
			k, remove = cur.want[0].k, true
		}
		at, found := cur.find(k)
		next := version[K]{want: slices.Clone(cur.want)}
		if remove {
			next.m = cur.m.Without(k)
			if found {
				next.want = slices.Delete(next.want, at, at+1)
			}
		} else {
			next.m = cur.m.With(k, op)
			if found {
				next.want[at].v = op
			} else {
				next.want = slices.Insert(next.want, at, entry[K]{k, op})
			}
		}
		if err := checkInvariants(next.m); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		cur = next
		all = append(all, cur)
		maxHeight = max(maxHeight, height(cur.m))
		for g, v := range all {
			v.verify(t, g, op)
		}
		cur.probe(t, keyOf(rng.Intn(space)))
		all[rng.Intn(len(all))].probe(t, keyOf(rng.Intn(space)))
	}
	if maxHeight < 3 {
		t.Fatalf("model never grew past height %d: inner nodes were not exercised", maxHeight)
	}
}

func TestModelVersionsStayIntact(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		runModel(t, 1, func(i int) uint64 { return uint64(i) * 1_000_003 })
	})
	t.Run("float64", func(t *testing.T) {
		runModel(t, 2, func(i int) float64 { return float64(i-350) / 7 })
	})
	t.Run("string", func(t *testing.T) {
		// Keys tie on their 8-byte prefix in runs of ten, a few are shorter
		// than the prefix.
		runModel(t, 3, func(i int) string {
			if i%97 == 0 {
				return fmt.Sprintf("k%03d", i)
			}
			return fmt.Sprintf("key-%04d%d", i/10, i%10)
		})
	})
}

// TestWithoutEmptiesLeavesInnerNodesAndRoot drains a four-level map in key
// order, so whole leaves, then whole inner nodes, then the root go: the
// structure must stay valid at every step without a rebalance, and the
// version the drain started from must not notice.
func TestWithoutEmptiesLeavesInnerNodesAndRoot(t *testing.T) {
	full := cowBase(t, 6_000)
	before := entries(full)
	if height(full) != 4 {
		t.Fatalf("height %d, want 4", height(full))
	}
	m, lastNodes := full, len(nodes(full))
	for i, e := range before {
		m = m.Without(e.k)
		if m.Len() != len(before)-i-1 {
			t.Fatalf("after %d removals Len = %d", i+1, m.Len())
		}
		// The map was bulk-loaded in key order, so every 16th removal
		// empties a leaf, which must leave the structure with it.
		if i%16 == 15 {
			if n := len(nodes(m)); n >= lastNodes {
				t.Fatalf("after %d removals %d nodes, %d before: an emptied leaf stayed", i+1, n, lastNodes)
			} else {
				lastNodes = n
			}
		}
		if i%16 == 15 || m.Len() < 40 {
			if err := checkInvariants(m); err != nil {
				t.Fatalf("after %d removals: %v", i+1, err)
			}
			if got := entries(m); !slices.Equal(got, before[i+1:]) {
				t.Fatalf("after %d removals content diverged", i+1)
			}
		}
	}
	if m.root != nil || m.Len() != 0 {
		t.Fatalf("drained map keeps root %v, Len %d", m.root, m.Len())
	}
	if got := m.With(7, 7); got.Len() != 1 || checkInvariants(got) != nil {
		t.Fatal("drained map does not take a write")
	}
	if after := entries(full); !slices.Equal(after, before) {
		t.Fatal("the drain changed the version it started from")
	}
	// Draining from the top end empties the rightmost spine instead.
	m = full
	for i := len(before) - 1; i >= 0; i-- {
		m = m.Without(before[i].k)
		if i%64 == 0 {
			if err := checkInvariants(m); err != nil {
				t.Fatalf("top-down, %d left: %v", i, err)
			}
		}
	}
	if m.root != nil {
		t.Fatal("top-down drain left a root")
	}
}

// TestFromSortedEqualsRepeatedWith pins that the bulk constructor and the
// write path build the same map, at sizes around the node boundaries.
func TestFromSortedEqualsRepeatedWith(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 255, 256, 257, 272, 273, 4097} {
		keys := make([]uint64, n)
		vals := make([]int, n)
		var grown Map[uint64, int]
		for i := range keys {
			keys[i], vals[i] = uint64(i)*3, i
			grown = grown.With(keys[i], vals[i])
		}
		bulk := FromSorted(keys, vals)
		if err := checkInvariants(bulk); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if bulk.Len() != grown.Len() || !slices.Equal(entries(bulk), entries(grown)) {
			t.Fatalf("n=%d: bulk-loaded and grown maps differ", n)
		}
		// A bulk-loaded map takes writes like any other.
		if w := bulk.With(1, -1).Without(0); checkInvariants(w) != nil || w.Len() != max(n, 1) {
			t.Fatalf("n=%d: write into a bulk-loaded map: Len %d, %v", n, w.Len(), checkInvariants(w))
		}
	}
	for name, f := range map[string]func(){
		"unsorted": func() { FromSorted([]uint64{2, 1}, []int{0, 0}) },
		"ragged":   func() { FromSorted([]uint64{1, 2}, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FromSorted accepted %s input", name)
				}
			}()
			f()
		}()
	}
}

// TestReadersWalkOldVersionsWhileWriterDerives is the race certificate of
// the no-ownership design: one writer derives and publishes versions while
// readers walk whichever version they loaded, each of which must read as
// the consistent map it was when published (value == 3·key, Len matches).
func TestReadersWalkOldVersionsWhileWriterDerives(t *testing.T) {
	var pub atomic.Pointer[Map[uint64, uint64]]
	pub.Store(&Map[uint64, uint64]{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				m := *pub.Load()
				n, last := 0, uint64(0)
				m.Ascend(func(k, v uint64) bool {
					if v != 3*k || (n > 0 && k <= last) {
						t.Errorf("reader saw (%d,%d) after %d", k, v, last)
						return false
					}
					n, last = n+1, k
					return true
				})
				if n != m.Len() {
					t.Errorf("reader walked %d entries of a version with Len %d", n, m.Len())
				}
				var it Iter[uint64, uint64]
				for it.SeekGE(m, uint64(rng.Intn(4000))); it.Valid(); it.Next() {
					if it.Value() != 3*it.Key() {
						t.Errorf("cursor saw (%d,%d)", it.Key(), it.Value())
						break
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	m := *pub.Load()
	for i := 0; i < 20_000; i++ {
		k := uint64(rng.Intn(4000))
		next := m.With(k, 3*k)
		if rng.Intn(3) == 0 {
			next = m.Without(k)
		}
		pub.Store(&next)
		m = next
	}
	stop.Store(true)
	wg.Wait()
	if err := checkInvariants(m); err != nil {
		t.Fatal(err)
	}
}

// TestWithAllocatesOneObjectPerLevel pins the fixed-array node: a write
// that splits nothing copies one node per level, and each copy is one
// allocation — a fresh key, an overwrite and a removal alike.
func TestWithAllocatesOneObjectPerLevel(t *testing.T) {
	for _, n := range []int{8, 64, 4096, 65_536} {
		rng := rand.New(rand.NewSource(int64(n)))
		var m Map[uint64, *uint64]
		for m.Len() < n {
			m = m.With(uint64(rng.Intn(8*n))*2, new(uint64))
		}
		// A fresh odd key whose leaf has room, and an even key to overwrite
		// and remove from a leaf that keeps other entries.
		var fresh, old uint64
		for fresh = uint64(rng.Intn(8*n))*2 + 1; leafOf(m, fresh).n == order; fresh += 2 {
		}
		m.Ascend(func(k uint64, _ *uint64) bool { old = k; return leafOf(m, k).n == 1 })
		v := new(uint64)
		for name, write := range map[string]func() Map[uint64, *uint64]{
			"fresh key": func() Map[uint64, *uint64] { return m.With(fresh, v) },
			"overwrite": func() Map[uint64, *uint64] { return m.With(old, v) },
			"removal":   func() Map[uint64, *uint64] { return m.Without(old) },
		} {
			if got := write(); height(got) != height(m) || len(nodes(got))-sharedNodes(got, m) != height(m) {
				t.Fatalf("n=%d, %s: copied %d nodes of a height-%d map", n, name, len(nodes(got))-sharedNodes(got, m), height(m))
			}
			allocs := testing.AllocsPerRun(100, func() { sinkMap = write() })
			if allocs != float64(height(m)) {
				t.Fatalf("n=%d, %s: %.1f allocations, want one per level (%d)", n, name, allocs, height(m))
			}
		}
	}
}

// leafOf returns the leaf a descent for k ends on.
func leafOf[K num.Key, V any](m Map[K, V], k K) *leaf[K, V] {
	p := m.root
	for h := m.height; h > 1; h-- {
		in := (*inner[K])(p)
		p = in.kids[search(in.keys[:in.n], k)]
	}
	return (*leaf[K, V])(p)
}

// FuzzDeltaOps drives With, Without, keep-this-version, FromSorted
// rebuilds, cursor walks and returns to a kept version over the keys
// 0..255, three bytes (op, key, argument) a step. Runs of writes reach
// leaf splits, inner splits and inner nodes emptied by removals within a
// short input. After every step each kept version must equal its
// array oracle and pass checkInvariants.
func FuzzDeltaOps(f *testing.F) {
	const (
		opWith = iota
		opWithout
		opWithRun
		opWithoutRun
		opKeep
		opRebuild
		opSeek
		opReturn
		numOps
	)
	f.Add([]byte{opWithRun, 0, 16})                                                         // 17 keys: the root leaf splits
	f.Add([]byte{opWithRun, 0, 255, opKeep, 0, 0, opWith, 7, 0})                            // 256 keys: an inner node splits
	f.Add([]byte{opWithRun, 0, 255, opKeep, 0, 0, opWithoutRun, 0, 254, opWithout, 255, 0}) // drain to empty, low end first
	f.Add([]byte{opWithRun, 0, 255, opRebuild, 0, 0, opWithoutRun, 0, 255})                 // drain a bulk-loaded map, high end first
	f.Add([]byte{opWithRun, 0, 200, opKeep, 0, 0, opWithoutRun, 40, 99, opSeek, 30, 40, opReturn, 0, 0, opWith, 50, 0})
	type oracle [256]struct {
		v  int
		ok bool
	}
	type kept struct {
		m    Map[uint8, int]
		want oracle
	}
	check := func(t *testing.T, step int, v kept) {
		if err := checkInvariants(v.m); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		n, next := 0, 0
		v.m.Ascend(func(k uint8, val int) bool {
			for next < len(v.want) && !v.want[next].ok {
				next++
			}
			if next != int(k) || v.want[k].v != val {
				t.Fatalf("step %d: entry (%d,%d), oracle's next is key %d", step, k, val, next)
			}
			n, next = n+1, next+1
			return true
		})
		for next < len(v.want) && !v.want[next].ok {
			next++
		}
		if next != len(v.want) || n != v.m.Len() {
			t.Fatalf("step %d: %d entries, Len %d, oracle has more from key %d", step, n, v.m.Len(), next)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cur kept
		all := []kept{cur}
		for step := 0; step+3 <= len(data); step += 3 {
			op, k, arg := data[step]%numOps, data[step+1], data[step+2]
			last := min(int(k)+int(arg), 255)
			switch op {
			case opWith:
				cur.m, cur.want[k].v, cur.want[k].ok = cur.m.With(k, step), step, true
			case opWithout:
				cur.m, cur.want[k].ok, cur.want[k].v = cur.m.Without(k), false, 0
			case opWithRun:
				for i := int(k); i <= last; i++ {
					cur.m, cur.want[i].v, cur.want[i].ok = cur.m.With(uint8(i), step+i), step+i, true
				}
			case opWithoutRun:
				// An odd argument removes the run from its top down.
				for j := range last - int(k) + 1 {
					i := int(k) + j
					if arg%2 == 1 {
						i = last - j
					}
					cur.m, cur.want[i].ok, cur.want[i].v = cur.m.Without(uint8(i)), false, 0
				}
			case opKeep:
				all = append(all, cur)
			case opRebuild:
				var keys []uint8
				var vals []int
				cur.m.Ascend(func(k uint8, v int) bool { keys, vals = append(keys, k), append(vals, v); return true })
				cur.m = FromSorted(keys, vals)
			case opSeek:
				var it Iter[uint8, int]
				i := int(k)
				for it.SeekGE(cur.m, k); it.Valid() && i <= last; it.Next() {
					for !cur.want[i].ok {
						i++
					}
					if it.Key() != uint8(i) || it.Value() != cur.want[i].v {
						t.Fatalf("step %d: SeekGE(%d) reached (%d,%d), oracle key %d", step, k, it.Key(), it.Value(), i)
					}
					i++
				}
				for ; !it.Valid() && i < len(cur.want); i++ {
					if cur.want[i].ok {
						t.Fatalf("step %d: SeekGE(%d) ran out before key %d", step, k, i)
					}
				}
			case opReturn:
				cur = all[int(arg)%len(all)]
			}
			for i := range cur.want {
				if got, ok := cur.m.Get(uint8(i)); ok != cur.want[i].ok || got != cur.want[i].v {
					t.Fatalf("step %d: Get(%d) = %d,%v, oracle %d,%v", step, i, got, ok, cur.want[i].v, cur.want[i].ok)
				}
			}
			check(t, step, cur)
			for _, v := range all {
				check(t, step, v)
			}
		}
	})
}

var (
	sinkMap Map[uint64, *uint64]
	sinkVal *uint64
)

// BenchmarkDeltaWith measures one With of a fresh key into a map of n
// entries — what publishing one write costs at that many pending keys.
func BenchmarkDeltaWith(b *testing.B) {
	for _, n := range []int{64, 4096, 65_536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var m Map[uint64, *uint64]
			for m.Len() < n {
				m = m.With(uint64(rng.Intn(8*n))*2, new(uint64))
			}
			fresh := make([]uint64, 1<<12)
			for i := range fresh {
				fresh[i] = uint64(rng.Intn(8*n))*2 + 1
			}
			v := new(uint64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkMap = m.With(fresh[i&(len(fresh)-1)], v)
			}
		})
	}
}

// BenchmarkDeltaGet times one Get at 64, 4 096 and 65 536 entries, half
// the probes hits and half misses between two entries.
func BenchmarkDeltaGet(b *testing.B) {
	for _, n := range []int{64, 4096, 65_536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var m Map[uint64, *uint64]
			var held []uint64
			for m.Len() < n {
				k := uint64(rng.Intn(8*n)) * 2
				m, held = m.With(k, new(uint64)), append(held, k)
			}
			probes := make([]uint64, 1<<12)
			for i := range probes {
				probes[i] = held[rng.Intn(len(held))] + uint64(i&1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkVal, _ = m.Get(probes[i&(len(probes)-1)])
			}
		})
	}
}
