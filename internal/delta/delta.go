// Package delta implements the persistent ordered map behind an
// Optimistic facade's pending writes.
//
// Every version is an immutable value: With and Without copy the nodes of
// one root-to-leaf descent, unconditionally (there is no ownership to
// track), and share every other node, so a reader keeps the version it
// holds intact. The structure is a B+ tree of order 16 without sibling
// links (a node reachable from two versions cannot point sideways). A
// layer lives for one flush interval, so removal does not rebalance:
// Without drops an emptied leaf, and an inner node left with no child.
//
// A node is one fixed-size struct, so a copy is one allocation: a leaf
// holds n keys and values in [order] arrays, an inner node n separators
// and n+1 children. Slots at or past n are zero, so a vacated value or
// child keeps nothing alive. Children are unsafe.Pointers, and Map carries
// the height, which tells a descent whether they are leaves or inner
// nodes: an interface child costs two words a slot and a type check a
// level, and one node type for both is 416 bytes and slower at every size.
package delta

import (
	"unsafe"

	"fitingtree/internal/num"
)

// order is the maximum number of keys per node.
const order = 16

// Map is one version of the map; the zero value is the empty map.
type Map[K num.Key, V any] struct {
	root   unsafe.Pointer // *leaf[K, V] at height 1, *inner[K] above; nil when empty
	height int            // levels from root to leaf, 0 when empty
	size   int
}

// leaf holds n entries. Nodes are never written once built.
type leaf[K num.Key, V any] struct {
	n    int
	keys [order]K
	vals [order]V
}

// inner holds n separators and n+1 children: subtree kids[i] holds keys k
// with keys[i-1] <= k < keys[i] (boundary keys omitted at the ends).
type inner[K num.Key] struct {
	n    int
	keys [order]K
	kids [order + 1]unsafe.Pointer
}

// Len returns the number of entries.
func (m Map[K, V]) Len() int { return m.size }

// search returns the index of the first key in keys that is > k.
func search[K num.Key](keys []K, k K) int {
	if ks, isStr := any(keys).([]string); isStr {
		return searchString(ks, any(k).(string))
	}
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchString is search for string keys. Each probe compares 8-byte
// big-endian prefixes first (weakly monotone, so an unequal prefix pair
// decides the order) and pays the full byte-wise comparison only on a
// prefix tie — ordered-bytes codec keys resolve almost every probe with
// one integer compare instead of a runtime string-compare call.
func searchString(keys []string, k string) int {
	kp := num.StringPrefix(k)
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		mp := num.StringPrefix(keys[mid])
		if mp < kp || (mp == kp && keys[mid] <= k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored for k.
func (m Map[K, V]) Get(k K) (V, bool) {
	p := m.root
	for h := m.height; h > 1; h-- {
		in := (*inner[K])(p)
		p = in.kids[search(in.keys[:in.n], k)]
	}
	if l := (*leaf[K, V])(p); l != nil {
		if i := search(l.keys[:l.n], k); i > 0 && l.keys[i-1] == k {
			return l.vals[i-1], true
		}
	}
	var zero V
	return zero, false
}

// With returns the version in which k maps to v.
func (m Map[K, V]) With(k K, v V) Map[K, V] {
	if m.root == nil {
		return Map[K, V]{root: newLeaf([]K{k}, []V{v}), height: 1, size: 1}
	}
	root, sep, right, added := with(m.root, m.height, k, v)
	if right != nil {
		root = newInner([]K{sep}, []unsafe.Pointer{root, right})
		m.height++
	}
	if added {
		m.size++
	}
	m.root = root
	return m
}

// with returns a copy of the subtree of height h at p in which k maps to
// v, and whether k is new to it. A copy past the order comes back split
// into left, sep and right.
func with[K num.Key, V any](p unsafe.Pointer, h int, k K, v V) (left unsafe.Pointer, sep K, right unsafe.Pointer, added bool) {
	if h == 1 {
		l := (*leaf[K, V])(p)
		i := search(l.keys[:l.n], k)
		if i > 0 && l.keys[i-1] == k {
			c := *l
			c.vals[i-1] = v
			return unsafe.Pointer(&c), sep, nil, false
		}
		var kb [order + 1]K
		var vb [order + 1]V
		keys := append(append(append(kb[:0], l.keys[:i]...), k), l.keys[i:l.n]...)
		vals := append(append(append(vb[:0], l.vals[:i]...), v), l.vals[i:l.n]...)
		if len(keys) <= order {
			return newLeaf(keys, vals), sep, nil, true
		}
		return newLeaf(keys[:order/2], vals[:order/2]), keys[order/2], newLeaf(keys[order/2:], vals[order/2:]), true
	}
	in := (*inner[K])(p)
	i := search(in.keys[:in.n], k)
	c, childSep, sibling, added := with[K, V](in.kids[i], h-1, k, v)
	if sibling == nil {
		cp := *in
		cp.kids[i] = c
		return unsafe.Pointer(&cp), sep, nil, added
	}
	// c stays at i, its sibling goes in at i+1; a split lifts the middle key.
	var kb [order + 1]K
	var cb [order + 2]unsafe.Pointer
	keys := append(append(append(kb[:0], in.keys[:i]...), childSep), in.keys[i:in.n]...)
	kids := append(append(append(cb[:0], in.kids[:i]...), c, sibling), in.kids[i+1:in.n+1]...)
	if len(keys) <= order {
		return newInner(keys, kids), sep, nil, added
	}
	return newInner(keys[:order/2], kids[:order/2+1]), keys[order/2], newInner(keys[order/2+1:], kids[order/2+1:]), added
}

// newLeaf returns a leaf holding a copy of keys and vals.
func newLeaf[K num.Key, V any](keys []K, vals []V) unsafe.Pointer {
	l := &leaf[K, V]{n: len(keys)}
	copy(l.keys[:], keys)
	copy(l.vals[:], vals)
	return unsafe.Pointer(l)
}

// newInner returns an inner node holding a copy of keys and kids.
func newInner[K num.Key](keys []K, kids []unsafe.Pointer) unsafe.Pointer {
	in := &inner[K]{n: len(keys)}
	copy(in.keys[:], keys)
	copy(in.kids[:], kids)
	return unsafe.Pointer(in)
}

// Without returns the version with no entry for k: the receiver itself
// when it has none.
func (m Map[K, V]) Without(k K) Map[K, V] {
	if m.root == nil {
		return m
	}
	switch root := without[K, V](m.root, m.height, k); root {
	case m.root:
		return m
	case nil:
		return Map[K, V]{}
	default:
		// A root left with one child is a pass-through level.
		for ; m.height > 1 && (*inner[K])(root).n == 0; m.height-- {
			root = (*inner[K])(root).kids[0]
		}
		return Map[K, V]{root: root, height: m.height, size: m.size - 1}
	}
}

// without returns a copy of the subtree of height h at p without k: p
// itself when k is not in it, nil when k was its last entry.
func without[K num.Key, V any](p unsafe.Pointer, h int, k K) unsafe.Pointer {
	if h == 1 {
		l := (*leaf[K, V])(p)
		switch i := search(l.keys[:l.n], k) - 1; {
		case i < 0 || l.keys[i] != k:
			return p
		case l.n > 1:
			c := &leaf[K, V]{n: l.n - 1}
			removeAt(c.keys[:c.n], l.keys[:l.n], i)
			removeAt(c.vals[:c.n], l.vals[:l.n], i)
			return unsafe.Pointer(c)
		}
		return nil
	}
	in := (*inner[K])(p)
	i := search(in.keys[:in.n], k)
	switch c := without[K, V](in.kids[i], h-1, k); {
	case c == in.kids[i]:
		return p
	case c != nil:
		cp := *in
		cp.kids[i] = c
		return unsafe.Pointer(&cp)
	case in.n == 0:
		return nil
	}
	// The emptied child leaves with a separator beside it.
	cp := &inner[K]{n: in.n - 1}
	removeAt(cp.keys[:cp.n], in.keys[:in.n], max(i-1, 0))
	removeAt(cp.kids[:cp.n+1], in.kids[:in.n+1], i)
	return unsafe.Pointer(cp)
}

// FromSorted builds a map bottom-up from strictly ascending keys and
// their values, copying both into the map's leaves.
func FromSorted[K num.Key, V any](keys []K, vals []V) Map[K, V] {
	if len(keys) != len(vals) {
		panic("delta: FromSorted: keys and values differ in length")
	}
	return FromSortedFunc(len(keys), func(i int) (K, V) { return keys[i], vals[i] })
}

// FromSortedFunc is FromSorted over the entries at(0), ..., at(n-1), for a
// caller whose entries are not two arrays already.
func FromSortedFunc[K num.Key, V any](n int, at func(i int) (K, V)) Map[K, V] {
	if n == 0 {
		return Map[K, V]{}
	}
	// firsts[i] is the smallest key under level[i]; parents overwrite both.
	level := make([]unsafe.Pointer, 0, (n+order-1)/order)
	firsts := make([]K, 0, cap(level))
	var l *leaf[K, V]
	var prev K
	for i := range n {
		k, v := at(i)
		if i > 0 && k <= prev {
			panic("delta: FromSorted: keys not strictly ascending")
		}
		if prev = k; i%order == 0 {
			l = &leaf[K, V]{}
			level, firsts = append(level, unsafe.Pointer(l)), append(firsts, k)
		}
		l.keys[l.n], l.vals[l.n] = k, v
		l.n++
	}
	h := 1
	for ; len(level) > 1; h++ {
		j := 0
		for i := 0; i < len(level); i, j = i+order, j+1 {
			end := min(i+order, len(level))
			level[j], firsts[j] = newInner(firsts[i+1:end], level[i:end]), firsts[i]
		}
		level, firsts = level[:j], firsts[:j]
	}
	return Map[K, V]{root: level[0], height: h, size: n}
}

// Ascend calls fn for every entry in ascending key order, stopping early
// if fn returns false.
func (m Map[K, V]) Ascend(fn func(k K, v V) bool) {
	it := Iter[K, V]{m: m, leaf: leftmost[K, V](m.root, m.height)}
	for ; it.Valid() && fn(it.Key(), it.Value()); it.Next() {
	}
}

// leftmost returns the first leaf of the subtree of height h at p, or nil.
func leftmost[K num.Key, V any](p unsafe.Pointer, h int) *leaf[K, V] {
	for ; p != nil && h > 1; h-- {
		p = (*inner[K])(p).kids[0]
	}
	return (*leaf[K, V])(p)
}

// Iter is a forward cursor over one version, for callers that merge the
// map into another ordered stream. A cursor that runs off its leaf
// descends again for the key after the last one it was on. The zero value
// is an exhausted cursor.
type Iter[K num.Key, V any] struct {
	m    Map[K, V]
	leaf *leaf[K, V] // nil when exhausted
	i    int         // the current entry's index in leaf
}

// SeekGE positions the cursor on the first entry of m with key >= k.
func (it *Iter[K, V]) SeekGE(m Map[K, V], k K) {
	it.m = m
	it.seek(k, true)
}

// seek positions the cursor on the first entry with key > k, or on k's
// own when it has one and orEqual is set.
func (it *Iter[K, V]) seek(k K, orEqual bool) {
	if it.leaf = nil; it.m.root == nil {
		return
	}
	p, right, rightH := it.m.root, unsafe.Pointer(nil), 0 // right: the nearest subtree right of the path
	for h := it.m.height; h > 1; h-- {
		in := (*inner[K])(p)
		i := search(in.keys[:in.n], k)
		if p = in.kids[i]; i < in.n {
			right, rightH = in.kids[i+1], h-1
		}
	}
	l := (*leaf[K, V])(p)
	i := search(l.keys[:l.n], k)
	if orEqual && i > 0 && l.keys[i-1] == k {
		i--
	}
	if i == l.n { // the answer is the first entry right of this leaf
		l, i = leftmost[K, V](right, rightH), 0
	}
	it.leaf, it.i = l, i
}

// Valid reports whether the cursor is on an entry.
func (it *Iter[K, V]) Valid() bool { return it.leaf != nil }

// Key returns the current entry's key; the cursor must be Valid.
func (it *Iter[K, V]) Key() K { return it.leaf.keys[it.i] }

// Value returns the current entry's value; the cursor must be Valid.
func (it *Iter[K, V]) Value() V { return it.leaf.vals[it.i] }

// Next advances to the next entry in key order; the cursor must be Valid.
func (it *Iter[K, V]) Next() {
	if it.i++; it.i == it.leaf.n {
		it.seek(it.leaf.keys[it.i-1], false)
	}
}

// removeAt writes src without its element at index i into dst, one shorter.
func removeAt[T any](dst, src []T, i int) {
	copy(dst, src[:i])
	copy(dst[i:], src[i+1:])
}
