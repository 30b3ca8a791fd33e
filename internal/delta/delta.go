// Package delta implements the persistent ordered map behind an
// Optimistic facade's pending writes.
//
// Every version of the map is an immutable value. With and Without return
// a new version and leave the receiver exactly as it was: they copy the
// nodes of one root-to-leaf descent — unconditionally, so there is no
// ownership to track and no usage rule to break — and share every other
// node, and every key slice the write did not change, with the version
// they started from. A writer publishes the new version; readers holding
// an older one keep a complete map for as long as they hold it, and the
// garbage collector reclaims what no version references any more.
//
// The structure is a B+ tree without sibling links (a node reachable from
// two versions cannot point sideways), of order 16. A layer lives for one
// flush interval, so removal does not rebalance: Without drops an emptied
// leaf — and an inner node left with no child — from its parent, and
// under-full nodes stay as they are. All leaves are at one depth, no
// leaf is empty, and every inner node has at least one child.
package delta

import (
	"slices"

	"fitingtree/internal/num"
)

// order is the maximum number of keys per node; a node splits when a
// write takes it past that.
const order = 16

// Map is one version of the map. The zero value is the empty map; copying
// a Map copies two words and shares the structure.
type Map[K num.Key, V any] struct {
	root *node[K, V] // nil when empty
	size int
}

// node is either a leaf (children == nil) or an inner node, and is never
// written after the call that built it returns.
//
// Inner node invariant: len(children) == len(keys)+1 and subtree
// children[i] holds keys k with keys[i-1] <= k < keys[i] (boundary keys
// omitted at the ends).
type node[K num.Key, V any] struct {
	keys     []K
	vals     []V           // leaf only, parallel to keys
	children []*node[K, V] // inner only
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

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
	if n := m.root; n != nil {
		for !n.leaf() {
			n = n.children[search(n.keys, k)]
		}
		if i := search(n.keys, k) - 1; i >= 0 && n.keys[i] == k {
			return n.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// With returns the version in which k maps to v.
func (m Map[K, V]) With(k K, v V) Map[K, V] {
	if m.root == nil {
		return Map[K, V]{root: &node[K, V]{keys: []K{k}, vals: []V{v}}, size: 1}
	}
	root, sep, right, added := m.root.with(k, v)
	if right != nil {
		root = &node[K, V]{keys: []K{sep}, children: []*node[K, V]{root, right}}
	}
	if added {
		m.size++
	}
	return Map[K, V]{root: root, size: m.size}
}

// with returns a copy of the subtree at n in which k maps to v, and
// whether k is new to it. A copy past the order comes back split: right
// is then its upper half and sep the key separating the two. The halves
// of a split share one backing array, which nothing writes again.
func (n *node[K, V]) with(k K, v V) (left *node[K, V], sep K, right *node[K, V], added bool) {
	i := search(n.keys, k)
	if n.leaf() {
		if i > 0 && n.keys[i-1] == k {
			vals := slices.Clone(n.vals)
			vals[i-1] = v
			return &node[K, V]{keys: n.keys, vals: vals}, sep, nil, false
		}
		left = &node[K, V]{keys: insertAt(n.keys, i, k), vals: insertAt(n.vals, i, v)}
		if len(left.keys) > order {
			mid := len(left.keys) / 2
			right = &node[K, V]{keys: left.keys[mid:], vals: left.vals[mid:]}
			left.keys, left.vals = left.keys[:mid], left.vals[:mid]
			sep = right.keys[0]
		}
		return left, sep, right, true
	}
	child, childSep, sibling, added := n.children[i].with(k, v)
	if sibling == nil {
		left = &node[K, V]{keys: n.keys, children: slices.Clone(n.children)}
		left.children[i] = child
		return left, sep, nil, added
	}
	left = &node[K, V]{keys: insertAt(n.keys, i, childSep), children: insertAt(n.children, i+1, sibling)}
	left.children[i] = child
	if len(left.keys) > order {
		mid := len(left.keys) / 2 // the middle key moves up
		sep = left.keys[mid]
		right = &node[K, V]{keys: left.keys[mid+1:], children: left.children[mid+1:]}
		left.keys, left.children = left.keys[:mid], left.children[:mid+1]
	}
	return left, sep, right, added
}

// Without returns the version with no entry for k: the receiver itself
// when it has none.
func (m Map[K, V]) Without(k K) Map[K, V] {
	if m.root == nil {
		return m
	}
	root := m.root.without(k)
	if root == m.root {
		return m
	}
	// A root left with one child is a pass-through level.
	for root != nil && !root.leaf() && len(root.children) == 1 {
		root = root.children[0]
	}
	return Map[K, V]{root: root, size: m.size - 1}
}

// without returns a copy of the subtree at n without k: n itself when k
// is not in it, nil when k was its last entry.
func (n *node[K, V]) without(k K) *node[K, V] {
	i := search(n.keys, k)
	if n.leaf() {
		switch {
		case i == 0 || n.keys[i-1] != k:
			return n
		case len(n.keys) == 1:
			return nil
		}
		return &node[K, V]{keys: removeAt(n.keys, i-1), vals: removeAt(n.vals, i-1)}
	}
	child := n.children[i].without(k)
	switch {
	case child == n.children[i]:
		return n
	case child != nil:
		c := &node[K, V]{keys: n.keys, children: slices.Clone(n.children)}
		c.children[i] = child
		return c
	case len(n.children) == 1:
		return nil
	}
	// The emptied child leaves with a separator beside it.
	return &node[K, V]{keys: removeAt(n.keys, max(i-1, 0)), children: removeAt(n.children, i)}
}

// FromSorted builds a map bottom-up from strictly ascending keys and
// their values. It keeps both slices — the leaves are cut from them — so
// the caller must not write to either afterwards.
func FromSorted[K num.Key, V any](keys []K, vals []V) Map[K, V] {
	if len(keys) != len(vals) {
		panic("delta: FromSorted: keys and values differ in length")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			panic("delta: FromSorted: keys not strictly ascending")
		}
	}
	if len(keys) == 0 {
		return Map[K, V]{}
	}
	// firsts[i] is the smallest key under level[i]: a parent's separators
	// are a slice of it.
	var level []*node[K, V]
	var firsts []K
	for at := 0; at < len(keys); at += order {
		end := min(at+order, len(keys))
		level = append(level, &node[K, V]{keys: keys[at:end], vals: vals[at:end]})
		firsts = append(firsts, keys[at])
	}
	for len(level) > 1 {
		var parents []*node[K, V]
		var parentFirsts []K
		for at := 0; at < len(level); at += order {
			end := min(at+order, len(level))
			parents = append(parents, &node[K, V]{keys: firsts[at+1 : end], children: level[at:end]})
			parentFirsts = append(parentFirsts, firsts[at])
		}
		level, firsts = parents, parentFirsts
	}
	return Map[K, V]{root: level[0], size: len(keys)}
}

// Ascend calls fn for every entry in ascending key order, stopping early
// if fn returns false.
func (m Map[K, V]) Ascend(fn func(k K, v V) bool) {
	if m.root != nil {
		m.root.ascend(fn)
	}
}

// ascend walks the subtree at n left to right; it reports false when fn
// requested a stop.
func (n *node[K, V]) ascend(fn func(k K, v V) bool) bool {
	for i := range n.vals {
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	for _, c := range n.children {
		if !c.ascend(fn) {
			return false
		}
	}
	return true
}

// Iter is a forward cursor over one version: the pull-style counterpart
// of Ascend, for callers that merge a map's entries into another ordered
// stream and cannot hand control to a callback. Leaves carry no sibling
// links, so a cursor that runs off its leaf descends again for the key
// after the last one it was on. The zero value is an exhausted cursor.
type Iter[K num.Key, V any] struct {
	root, leaf *node[K, V] // leaf is nil when exhausted
	i          int         // the current entry's index in leaf
}

// SeekGE positions the cursor on the first entry of m with key >= k.
func (it *Iter[K, V]) SeekGE(m Map[K, V], k K) {
	it.root = m.root
	it.seek(k, true)
}

// seek positions the cursor on the first entry with key > k, or on k's
// own when it has one and orEqual is set.
func (it *Iter[K, V]) seek(k K, orEqual bool) {
	it.leaf = nil
	n := it.root
	if n == nil {
		return
	}
	var right *node[K, V] // root of the nearest subtree right of the path
	for !n.leaf() {
		i := search(n.keys, k)
		if i < len(n.keys) {
			right = n.children[i+1]
		}
		n = n.children[i]
	}
	i := search(n.keys, k)
	if orEqual && i > 0 && n.keys[i-1] == k {
		i--
	}
	if i == len(n.keys) {
		// Nothing left in this leaf: the answer is the first entry of the
		// subtree to its right. Leaves are never empty.
		if n, i = right, 0; n == nil {
			return
		}
		for !n.leaf() {
			n = n.children[0]
		}
	}
	it.leaf, it.i = n, i
}

// Valid reports whether the cursor is on an entry.
func (it *Iter[K, V]) Valid() bool { return it.leaf != nil }

// Key returns the current entry's key; the cursor must be Valid.
func (it *Iter[K, V]) Key() K { return it.leaf.keys[it.i] }

// Value returns the current entry's value; the cursor must be Valid.
func (it *Iter[K, V]) Value() V { return it.leaf.vals[it.i] }

// Next advances to the next entry in key order; the cursor must be Valid.
func (it *Iter[K, V]) Next() {
	if it.i++; it.i == len(it.leaf.keys) {
		it.seek(it.leaf.keys[it.i-1], false)
	}
}

// insertAt returns a copy of s with v inserted at index i.
func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// removeAt returns a copy of s without the element at index i.
func removeAt[T any](s []T, i int) []T { return slices.Delete(slices.Clone(s), i, i+1) }
