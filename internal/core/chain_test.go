package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"fitingtree/internal/num"
)

// TestPageHeadSize pins the hot half of a page to what a lookup can afford
// to read: the model, the window, two slice headers and a word of flags.
func TestPageHeadSize(t *testing.T) {
	if n := unsafe.Sizeof(pageHead[uint64, uint64]{}); n > 88 {
		t.Fatalf("pageHead[uint64, uint64] is %d bytes, want <= 88", n)
	}
}

// linearLocate is locate's reference: a scan of the whole chain for the
// last page whose start is <= k, the first page if there is none.
func linearLocate[K num.Key, V any](tr *Tree[K, V], k K) (ci, pi int) {
	for i, c := range tr.chunks {
		for j, p := range c.pages {
			if p.start() <= k {
				ci, pi = i, j
			}
		}
	}
	return ci, pi
}

// multimap is the sorted-multimap oracle: every value stored under a key,
// order ignored.
type multimap map[uint64][]uint64

func (m multimap) add(k, v uint64) { m[k] = append(m[k], v) }

func (m multimap) remove(k, v uint64) {
	i := slices.Index(m[k], v)
	if m[k] = slices.Delete(m[k], i, i+1); len(m[k]) == 0 {
		delete(m, k)
	}
}

func sameMultiset(a, b []uint64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// checkChain holds tr to the oracle: locate against the linear scan, and
// Lookup, Each and AscendRange against the multimap, on every stored key,
// its neighbours, and the ends of the key space.
func checkChain(t *testing.T, tr *Tree[uint64, uint64], m multimap, what string) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	probes := []uint64{0, 1, math.MaxUint64}
	for _, k := range keys {
		probes = append(probes, k-1, k, k+1)
	}
	// The linear scan is O(pages) per probe: on a big tree it faces a
	// sample of the probes, the reads below face all of them.
	scanEvery := 1 + len(probes)/1500
	for i, k := range probes {
		if len(tr.chunks) > 0 && i%scanEvery == 0 {
			ci, pi := linearLocate(tr, k)
			if cu := tr.locate(k); cu.ci != ci || cu.pi != pi || cu.c != tr.chunks[ci] {
				t.Fatalf("%s: locate(%d) = (%d, %d), a scan of the chain says (%d, %d)", what, k, cu.ci, cu.pi, ci, pi)
			}
		}
		v, ok := tr.Lookup(k)
		if ok != (len(m[k]) > 0) || (ok && !slices.Contains(m[k], v)) {
			t.Fatalf("%s: Lookup(%d) = (%d, %v), oracle holds %v", what, k, v, ok, m[k])
		}
		var got []uint64
		tr.Each(k, func(v uint64) bool { got = append(got, v); return true })
		if !sameMultiset(got, m[k]) {
			t.Fatalf("%s: Each(%d) = %v, oracle holds %v", what, k, got, m[k])
		}
	}
	// Ranges between random stored keys, and the whole key space.
	ranges := [][2]uint64{{0, math.MaxUint64}}
	for i := 0; i < 20 && len(keys) > 0; i++ {
		a, b := keys[rand.Intn(len(keys))], keys[rand.Intn(len(keys))]
		ranges = append(ranges, [2]uint64{min(a, b), max(a, b)})
	}
	for _, r := range ranges {
		var gotK []uint64
		gotV := multimap{}
		tr.AscendRange(r[0], r[1], func(k, v uint64) bool {
			gotK = append(gotK, k)
			gotV.add(k, v)
			return true
		})
		var wantK []uint64
		lo, _ := slices.BinarySearch(keys, r[0])
		for _, k := range keys[lo:] {
			if k > r[1] {
				break
			}
			for range m[k] {
				wantK = append(wantK, k)
			}
			if !sameMultiset(gotV[k], m[k]) {
				t.Fatalf("%s: AscendRange(%d, %d) values under %d = %v, oracle holds %v", what, r[0], r[1], k, gotV[k], m[k])
			}
		}
		if !slices.Equal(gotK, wantK) {
			t.Fatalf("%s: AscendRange(%d, %d) visited %d keys, oracle holds %d", what, r[0], r[1], len(gotK), len(wantK))
		}
	}
}

// TestChainLocateOracle drives the chain-as-router through every shape it
// takes — empty, one page, one chunk, many chunks with equal-start runs
// that cross chunk boundaries — and through every way it changes: in-place
// inserts and deletes, and MergeCOW folds. After each step locate must
// equal a linear scan of the chain and the reads a sorted multimap.
func TestChainLocateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial, n := range []int{0, 1, 3, 40, 900, 6_000, 25_000, 25_000} {
		opts := Options{Error: 3 + rng.Intn(10)}
		opts.BufferSize = rng.Intn(opts.Error)
		// Long duplicate runs: at this error a page holds a handful of
		// copies, so a run of hundreds is an equal-start run of dozens of
		// pages, and chunkTarget of those in a row cross a chunk boundary.
		keys := make([]uint64, n)
		k, run := uint64(10), 0
		for i := range keys {
			if run > 0 {
				run--
			} else {
				k += uint64(1 + rng.Intn(6))
				if rng.Intn(40) == 0 {
					run = 20 + rng.Intn(1500)
				}
			}
			keys[i] = k
		}
		vals := make([]uint64, n)
		m := multimap{}
		for i := range vals {
			vals[i] = uint64(i)
			m.add(keys[i], vals[i])
		}
		tr, err := BulkLoad(keys, vals, opts)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d (n=%d, %+v)", trial, n, opts)
		checkChain(t, tr, m, what+" after BulkLoad")
		if n == 25_000 {
			crossing := false
			for ci, c := range tr.chunks[1:] {
				before := tr.chunks[ci].starts
				crossing = crossing || c.start() == before[len(before)-1]
			}
			if !crossing {
				t.Fatalf("%s: no equal-start run crosses a chunk boundary; the test lost its subject", what)
			}
		}

		maxKey := k + 10
		next := uint64(1 << 32)
		for i := 0; i < 400; i++ {
			k := uint64(rng.Int63n(int64(maxKey)))
			if rng.Intn(2) == 0 && len(keys) > 0 {
				k = keys[rng.Intn(len(keys))] // into and out of the runs
			}
			if rng.Intn(3) > 0 {
				tr.Insert(k, next)
				m.add(k, next)
				next++
				continue
			}
			// Half the deletes take the first match in scan order, half the
			// last: eroding a run from its tail leaves pages that start at k
			// and no longer hold it, the one case a lookup walks back for.
			var victim, last uint64
			fromTail := rng.Intn(2) == 0
			tr.Each(k, func(v uint64) bool { last = v; return true })
			if tr.DeleteWhere(k, func(v uint64) bool { victim = v; return !fromTail || v == last }) != (len(m[k]) > 0) {
				t.Fatalf("%s: Delete(%d) disagrees with the oracle %v", what, k, m[k])
			} else if len(m[k]) > 0 {
				m.remove(k, victim)
			}
		}
		checkChain(t, tr, m, what+" after in-place edits")

		for fold := 0; fold < 3; fold++ {
			seen := map[uint64]bool{}
			var ops []MergeOp[uint64, uint64]
			for len(ops) < min(60, int(maxKey)/2) {
				k := uint64(rng.Int63n(int64(maxKey)))
				if rng.Intn(2) == 0 && len(keys) > 0 {
					k = keys[rng.Intn(len(keys))]
				}
				if seen[k] {
					continue
				}
				seen[k] = true
				op := MergeOp[uint64, uint64]{Key: k}
				if rng.Intn(3) == 0 {
					// The first Dels matches in scan order are Each's first.
					var order []uint64
					tr.Each(k, func(v uint64) bool { order = append(order, v); return true })
					op.Dels = rng.Intn(len(order) + 2)
					for _, v := range order[:min(op.Dels, len(order))] {
						m.remove(k, v)
					}
				}
				for a := rng.Intn(3); a > 0 || op.Dels == 0 && len(op.Adds) == 0; a-- {
					op.Adds = append(op.Adds, next)
					m.add(k, next)
					next++
				}
				ops = append(ops, op)
			}
			sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
			tr = tr.MergeCOW(ops)
			checkChain(t, tr, m, fmt.Sprintf("%s after fold %d", what, fold))
		}
	}
}

// TestAbsentLookupWalksNothing pins the exact miss test: a key that is not
// in its page and is not the page's start is absent, decided from the start
// arrays — no preceding page is consulted.
func TestAbsentLookupWalksNothing(t *testing.T) {
	keys := make([]uint64, 50_000)
	for i := range keys {
		keys[i] = uint64(i) * 4
	}
	backUps := 0
	onBackUp = func() { backUps++ }
	defer func() { onBackUp = nil }()
	tr, err := BulkLoad(keys, make([]int, len(keys)), Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := tr.Lookup(k + 1); ok {
			t.Fatalf("absent key %d found", k+1)
		}
		if _, ok := tr.Lookup(k); !ok {
			t.Fatalf("present key %d not found", k)
		}
	}
	if backUps != 0 {
		t.Fatalf("%d lookups consulted a preceding page; none had to", backUps)
	}
}

// TestFarKeysAreAbsent probes keys the model sends far outside any page —
// the ends of the key type, where an unclamped float-to-int conversion is
// undefined: they are absent, match nothing and start no scan.
func TestFarKeysAreAbsent(t *testing.T) {
	u := make([]uint64, 20_000)
	i64 := make([]int64, len(u))
	f := make([]float64, len(u))
	for i := range u {
		u[i] = 1<<40 + uint64(i)*7
		i64[i] = int64(i)*7 - 70_000
		f[i] = float64(i)*0.5 - 1e6
	}
	opts := Options{Error: 32, BufferSize: 4}
	farKeysAbsent(t, "uint64", u, opts, 0, 1, 1<<63, math.MaxUint64-1, math.MaxUint64)
	farKeysAbsent(t, "int64", i64, opts, math.MinInt64, math.MinInt64+1, math.MaxInt64)
	farKeysAbsent(t, "float64", f, opts, math.Inf(-1), -math.MaxFloat64, math.MaxFloat64, math.Inf(1))
}

func farKeysAbsent[K num.Key](t *testing.T, name string, keys []K, opts Options, far ...K) {
	t.Helper()
	tr, err := BulkLoad(keys, make([]int, len(keys)), opts)
	if err != nil {
		t.Fatal(err)
	}
	// A few buffered inserts and in-place deletes, so widened windows and
	// buffers face the same probes.
	for i := 0; i < 200; i++ {
		tr.Insert(keys[(i*97)%len(keys)], i)
		tr.Delete(keys[(i*89)%len(keys)])
	}
	for _, k := range far {
		if _, ok := tr.Lookup(k); ok {
			t.Fatalf("%s: Lookup(%v) found a key that was never stored", name, k)
		}
		rows := 0
		tr.Each(k, func(int) bool { rows++; return true })
		tr.AscendRange(k, k, func(K, int) bool { rows++; return true })
		tr.DescendRange(k, k, func(K, int) bool { rows++; return true })
		if _, found := tr.LookupBatch([]K{k}); found[0] || rows != 0 {
			t.Fatalf("%s: far key %v matched %d rows (batch found %v)", name, k, rows, found[0])
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSeekMatchesFindKey is the property the one windowed search rests on:
// a page's model bounds the lower bound of any key, stored or not, inside
// the page's range or out of it, so seek over the window equals findKey
// over the whole page — with duplicates, in-place deletes, signed and
// string keys.
func TestSeekMatchesFindKey(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 30_000
	u := make([]uint64, n)
	i64 := make([]int64, n)
	fixed := make([]string, n)
	free := make([]string, n)
	k := uint64(0)
	for i := range u {
		if rng.Intn(4) > 0 { // duplicates a quarter of the time
			k += uint64(1 + rng.Intn(1000))
		}
		u[i] = k
		i64[i] = int64(k) - 8_000_000
		fixed[i] = fmt.Sprintf("%08d", k)
		free[i] = fmt.Sprintf("user/%07d/%s", k/3, []string{"", "a", "profile"}[k%3])
	}
	slices.Sort(free)
	opts := Options{Error: 24, BufferSize: 6}
	seekMatchesFindKey(t, "uint64", u, opts, func(k uint64) []uint64 { return []uint64{k - 1, k + 1, k + 1<<40} })
	seekMatchesFindKey(t, "int64", i64, opts, func(k int64) []int64 { return []int64{k - 1, k + 1, -k, math.MinInt64} })
	seekMatchesFindKey(t, "string8", fixed, opts, func(k string) []string { return []string{k[:7], k + "0", "99999999"} })
	seekMatchesFindKey(t, "string", free, opts, func(k string) []string { return []string{k[:len(k)-1], k + "!", "user/", "v"} })
}

func seekMatchesFindKey[K num.Key](t *testing.T, name string, keys []K, opts Options, near func(K) []K) {
	t.Helper()
	tr, err := BulkLoad(keys, make([]int, len(keys)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 7 { // in-place deletes widen windows
		tr.Delete(keys[i])
	}
	var probes []K
	for i := 0; i < len(keys); i += 11 {
		probes = append(probes, keys[i])
		probes = append(probes, near(keys[i])...)
	}
	for _, c := range tr.chunks {
		for pi, p := range c.pages {
			// Every probe against every page would be quadratic; each page
			// faces its own keys' neighbourhood and a sample of the rest.
			mine := append([]K{p.firstKey(), p.lastKey()}, near(p.firstKey())...)
			mine = append(mine, near(p.lastKey())...)
			mine = append(mine, p.keys...)
			for i := 0; i < 40; i++ {
				mine = append(mine, probes[(pi*131+i*17)%len(probes)])
			}
			for _, k := range mine {
				want, _ := findKey(p.keys, k)
				if got, hit := tr.seek(cursor[K, int]{c: c, pi: pi}, k); got != want || hit != (want < len(p.keys) && p.keys[want] == k) {
					t.Fatalf("%s: page %v (%d keys, window %d): seek(%v) = %d, findKey says %d",
						name, p.start(), len(p.keys), c.heads[pi].w, k, got, want)
				}
			}
		}
	}
}
