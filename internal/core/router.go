package core

import (
	"fmt"

	"fitingtree/internal/btree"
	"fitingtree/internal/num"
)

// RouterKind selects the structure organizing the segments' routing keys.
// The paper (Section 2.2) notes that "instead of internally using a
// standard B+ tree ... A-Tree could instead use any other tree-based index
// structure. For example, if the workload is read-only, other index
// structures such as the FAST tree could be used." RouterImplicit is that
// read-optimized variant: a cache-friendly implicit binary layout that is
// rebuilt (O(segments)) whenever a merge changes the segment set.
type RouterKind int

const (
	// RouterBTree organizes segments in the B+ tree substrate (default;
	// the paper's design). It is persistently cloneable: MergeCOW
	// publications share all router nodes off the mutated descent paths.
	RouterBTree RouterKind = iota
	// RouterImplicit organizes segments in an Eytzinger-layout implicit
	// binary search tree: faster, smaller, and cache-friendlier to search,
	// but every structural update rebuilds it — and a COW publication
	// copies it wholesale — so it suits read-mostly workloads.
	RouterImplicit
)

// router is the internal index from segment start keys straight to the
// segments' pages. Both implementations store at most one entry per key
// (equal-start page runs register only their first page; see the
// page-chain invariant). A page pointer is an address that no splice
// invalidates as long as the page itself is carried — re-cutting the
// chunk around a page changes its coordinates but not its entry — so the
// interface has neither a suffix-renumbering nor a repointing operation,
// and publication touches exactly the entries of pages it rebuilds.
type router[K num.Key, V any] interface {
	floor(k K) (*page[K, V], bool)
	get(k K) (*page[K, V], bool)
	// insert registers page p under k, reporting whether an existing
	// entry was replaced.
	insert(k K, p *page[K, V]) bool
	delete(k K) bool
	len() int
	bulkLoad(keys []K, pages []*page[K, V], fill float64) error
	stats() btree.Stats
	check() error
}

// btreeRouter adapts the B+ tree substrate to the router interface. Trees
// install routers via initRouter (fresh) or adoptRouter (persistent
// clone), which also retain the concrete value so the lookup hot path
// skips this interface.
type btreeRouter[K num.Key, V any] struct {
	tr *btree.Tree[K, *page[K, V]]
}

func (r *btreeRouter[K, V]) floor(k K) (*page[K, V], bool) {
	_, l, ok := r.tr.Floor(k)
	return l, ok
}

func (r *btreeRouter[K, V]) get(k K) (*page[K, V], bool) { return r.tr.Get(k) }

func (r *btreeRouter[K, V]) insert(k K, l *page[K, V]) bool { return r.tr.Insert(k, l) }
func (r *btreeRouter[K, V]) delete(k K) bool                { return r.tr.Delete(k) }

func (r *btreeRouter[K, V]) len() int { return r.tr.Len() }

func (r *btreeRouter[K, V]) bulkLoad(keys []K, pages []*page[K, V], fill float64) error {
	return r.tr.BulkLoad(keys, pages, fill)
}

func (r *btreeRouter[K, V]) stats() btree.Stats { return r.tr.Stats() }
func (r *btreeRouter[K, V]) check() error       { return r.tr.CheckInvariants() }

// implicitRouter keeps routing keys in a sorted array searched through an
// Eytzinger (BFS) layout. Searches touch one cache line per level with a
// predictable access pattern; structural mutations rebuild both arrays in
// O(n), which is cheap because n is the number of segments, not keys.
type implicitRouter[K num.Key, V any] struct {
	keys   []K           // sorted
	pages  []*page[K, V] // routed pages, parallel to keys
	eytz   []K           // 1-based BFS layout of keys
	pref   []uint64      // string keys only: parallel 8-byte prefixes of eytz
	fixed8 bool          // string keys only: every routing key is exactly 8 bytes
	perm   []int32
}

// clone returns an independently mutable copy. The key and page arrays
// are copied (insert overwrites entries in place); the derived Eytzinger
// layout is shared until a structural mutation rebuilds it, since rebuild
// replaces the layout slices wholesale.
func (r *implicitRouter[K, V]) clone() *implicitRouter[K, V] {
	return &implicitRouter[K, V]{
		keys:   append([]K(nil), r.keys...),
		pages:  append([]*page[K, V](nil), r.pages...),
		eytz:   r.eytz,
		pref:   r.pref,
		fixed8: r.fixed8,
		perm:   r.perm,
	}
}

// rebuild derives the Eytzinger layout from the sorted arrays.
func (r *implicitRouter[K, V]) rebuild() {
	n := len(r.keys)
	r.eytz = make([]K, n+1)
	r.perm = make([]int32, n+1)
	i := 0
	var fill func(slot int)
	fill = func(slot int) {
		if slot > n {
			return
		}
		fill(2 * slot)
		r.eytz[slot] = r.keys[i]
		r.perm[slot] = int32(i)
		i++
		fill(2*slot + 1)
	}
	fill(1)
	r.pref = stringPrefixes(r.eytz)
	// The sorted array, not the layout: eytz's unused slot 0 holds the
	// zero string, which must not veto the fixed-width fast path.
	r.fixed8 = allLen8(r.keys)
}

// searchFloor returns the sorted index of the greatest key <= k, or -1.
func (r *implicitRouter[K, V]) searchFloor(k K) int {
	n := len(r.keys)
	if n == 0 {
		return -1
	}
	if r.pref != nil {
		return r.searchFloorString(any(k).(string))
	}
	best := -1
	slot := 1
	for slot <= n {
		if r.eytz[slot] <= k {
			// Keys on successive right turns increase, so the last one
			// recorded is the floor.
			best = int(r.perm[slot])
			slot = 2*slot + 1
		} else {
			slot = 2 * slot
		}
	}
	return best
}

// searchFloorString is searchFloor for string keys: the descent probes
// the prefix sidecar (one contiguous integer array, like a numeric
// router) and dereferences the actual routing string only on a prefix
// tie.
func (r *implicitRouter[K, V]) searchFloorString(k string) int {
	ks := any(r.eytz).([]string)
	kp := num.StringPrefix(k)
	n := len(r.keys)
	best := -1
	slot := 1
	if r.fixed8 && len(k) == 8 {
		// Fixed-width codec keys: the sidecar is a lossless image of the
		// routing keys, so the descent never touches string data.
		for slot <= n {
			if r.pref[slot] <= kp {
				best = int(r.perm[slot])
				slot = 2*slot + 1
			} else {
				slot = 2 * slot
			}
		}
		return best
	}
	for slot <= n {
		p := r.pref[slot]
		if p < kp || (p == kp && ks[slot] <= k) {
			best = int(r.perm[slot])
			slot = 2*slot + 1
		} else {
			slot = 2 * slot
		}
	}
	return best
}

func (r *implicitRouter[K, V]) floor(k K) (*page[K, V], bool) {
	i := r.searchFloor(k)
	if i < 0 {
		return nil, false
	}
	return r.pages[i], true
}

func (r *implicitRouter[K, V]) get(k K) (*page[K, V], bool) {
	i := r.searchFloor(k)
	if i < 0 || r.keys[i] != k {
		return nil, false
	}
	return r.pages[i], true
}

func (r *implicitRouter[K, V]) insert(k K, l *page[K, V]) bool {
	i, found := findKey(r.keys, k)
	if found {
		r.pages[i] = l
		// Keys unchanged: the layout stays valid.
		return true
	}
	r.keys = insertAt(r.keys, i, k)
	r.pages = insertAt(r.pages, i, l)
	r.rebuild()
	return false
}

func (r *implicitRouter[K, V]) delete(k K) bool {
	i, found := findKey(r.keys, k)
	if !found {
		return false
	}
	r.keys = removeAt(r.keys, i)
	r.pages = removeAt(r.pages, i)
	r.rebuild()
	return true
}

func (r *implicitRouter[K, V]) len() int { return len(r.keys) }

func (r *implicitRouter[K, V]) bulkLoad(keys []K, pages []*page[K, V], fill float64) error {
	if len(keys) != len(pages) {
		return fmt.Errorf("router: %d keys but %d pages", len(keys), len(pages))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("router: keys not strictly ascending at %d", i)
		}
	}
	r.keys = append([]K(nil), keys...)
	r.pages = append([]*page[K, V](nil), pages...)
	r.rebuild()
	return nil
}

func (r *implicitRouter[K, V]) stats() btree.Stats {
	h := 0
	for n := len(r.keys); n > 0; n >>= 1 {
		h++
	}
	return btree.Stats{
		Len:       len(r.keys),
		Height:    num.MaxInt(1, h),
		LeafNodes: 1,
		SizeBytes: int64(len(r.keys)) * 16, // key + page pointer per entry
	}
}

func (r *implicitRouter[K, V]) check() error {
	if len(r.keys) != len(r.pages) {
		return fmt.Errorf("router: keys/pages length mismatch")
	}
	for i := 1; i < len(r.keys); i++ {
		if r.keys[i] <= r.keys[i-1] {
			return fmt.Errorf("router: keys out of order at %d", i)
		}
	}
	for i, p := range r.pages {
		if p == nil || p.id == 0 {
			return fmt.Errorf("router: nil or identity-less page at %d", i)
		}
	}
	if len(r.eytz) != len(r.keys)+1 {
		return fmt.Errorf("router: stale eytzinger layout")
	}
	for slot := 1; slot < len(r.eytz); slot++ {
		if r.keys[r.perm[slot]] != r.eytz[slot] {
			return fmt.Errorf("router: layout disagrees with keys at slot %d", slot)
		}
	}
	if ks, isStr := any(r.eytz).([]string); isStr {
		if len(r.pref) != len(ks) {
			return fmt.Errorf("router: prefix sidecar length %d, layout %d", len(r.pref), len(ks))
		}
		for slot := 1; slot < len(ks); slot++ {
			if r.pref[slot] != num.StringPrefix(ks[slot]) {
				return fmt.Errorf("router: stale prefix sidecar at slot %d", slot)
			}
		}
		if r.fixed8 != allLen8(r.keys) {
			return fmt.Errorf("router: stale fixed-width flag")
		}
	}
	return nil
}
