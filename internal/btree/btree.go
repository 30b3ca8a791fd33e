// Package btree implements a textbook in-memory B+ tree: the yardstick of
// the paper's evaluation.
//
// The FITing-Tree paper builds every competitor over one shared B+ tree
// (the STX tree) so that each pays the same inner-node cost. Here that tree
// carries internal/baseline's dense ("full") index, one entry per key, and
// its fixed-page index, one entry per page. Nothing else in the library is
// built on it — FITing-Tree's pages are routed by their own chain
// (internal/core), an Optimistic facade's pending writes live in
// internal/delta — so its shape is pinned (baseline's
// TestYardstickShapePinned) and the figures stay comparable.
//
// The tree maps ordered keys to values: lookup, insertion (with node
// splits), deletion (with borrow/merge rebalancing), floor search
// (greatest key <= k, how the fixed-page index routes a key to its page),
// range scans and bottom-up bulk loading. It is mutable and not safe for
// concurrent use; leaves carry no sibling links and are reached by descent.
package btree

import (
	"fmt"

	"fitingtree/internal/num"
)

// DefaultOrder is the default maximum number of keys per node. With 8-byte
// keys and pointers this keeps nodes around one or two cache lines of keys,
// mirroring the fanout regime the paper's cost model assumes.
const DefaultOrder = 16

// Tree is a B+ tree from K to V. The zero value is not usable; call New.
type Tree[K num.Key, V any] struct {
	order  int // max keys per node; nodes split when exceeding it
	root   *node[K, V]
	height int // number of levels, 1 = root is a leaf
	size   int // number of key/value pairs
}

// node is either a leaf (children == nil) or an inner node.
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

// New returns an empty tree with the given order (maximum keys per node).
// Orders below 3 are raised to 3 so splits always leave both halves with at
// least one key.
func New[K num.Key, V any](order int) *Tree[K, V] {
	if order < 3 {
		order = 3
	}
	return &Tree[K, V]{order: order, height: 1, root: &node[K, V]{}}
}

// Len returns the number of key/value pairs stored.
func (t *Tree[K, V]) Len() int { return t.size }

// Height returns the number of levels in the tree. An empty tree has
// height 1 (the root is an empty leaf).
func (t *Tree[K, V]) Height() int { return t.height }

// search returns the index of the first key in n.keys that is > k. It is a
// hand-rolled binary search: sort.Search would cost an indirect closure
// call per probe on the descent path of every Get/Floor/Insert.
func search[K num.Key, V any](n *node[K, V], k K) int {
	keys := n.keys
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

// findLeaf descends from the root to the leaf that would contain k.
func (t *Tree[K, V]) findLeaf(k K) *node[K, V] {
	n := t.root
	for !n.leaf() {
		n = n.children[search(n, k)]
	}
	return n
}

// Get returns the value stored for k.
func (t *Tree[K, V]) Get(k K) (V, bool) {
	n := t.findLeaf(k)
	i := search(n, k) - 1
	if i >= 0 && n.keys[i] == k {
		return n.vals[i], true
	}
	var zero V
	return zero, false
}

// Floor returns the greatest key <= k and its value. This is the routing
// operation of the fixed-page index: pages are keyed by their starting
// key, so the page owning k is Floor(k). Leaves carry no sibling links, so
// the descent remembers the nearest subtree entirely left of the path;
// when the descent leaf has no key <= k the answer is that subtree's
// maximum.
func (t *Tree[K, V]) Floor(k K) (K, V, bool) {
	n := t.root
	var left *node[K, V] // root of the nearest subtree with keys < the path
	for !n.leaf() {
		i := search(n, k)
		if i > 0 {
			left = n.children[i-1]
		}
		n = n.children[i]
	}
	if i := search(n, k) - 1; i >= 0 {
		return n.keys[i], n.vals[i], true
	}
	if left == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	for !left.leaf() {
		left = left.children[len(left.children)-1]
	}
	// A non-root leaf is never empty, and a subtree hanging off an inner
	// node is never rooted at the tree root.
	last := len(left.keys) - 1
	return left.keys[last], left.vals[last], true
}

// Insert stores v under k, replacing any existing value. It reports whether
// a previous value was replaced.
func (t *Tree[K, V]) Insert(k K, v V) bool {
	replaced, splitKey, sibling := t.insert(t.root, k, v)
	if sibling != nil {
		t.root = &node[K, V]{keys: []K{splitKey}, children: []*node[K, V]{t.root, sibling}}
		t.height++
	}
	if !replaced {
		t.size++
	}
	return replaced
}

// insert recursively inserts into n. If n splits, it returns the separator
// key and the new right sibling to be installed in the parent.
func (t *Tree[K, V]) insert(n *node[K, V], k K, v V) (replaced bool, splitKey K, sibling *node[K, V]) {
	if n.leaf() {
		i := search(n, k)
		if i > 0 && n.keys[i-1] == k {
			n.vals[i-1] = v
			return true, splitKey, nil
		}
		n.keys = insertAt(n.keys, i, k)
		n.vals = insertAt(n.vals, i, v)
		if len(n.keys) > t.order {
			splitKey, sibling = t.splitLeaf(n)
		}
		return false, splitKey, sibling
	}

	ci := search(n, k)
	replaced, childKey, childSibling := t.insert(n.children[ci], k, v)
	if childSibling != nil {
		n.keys = insertAt(n.keys, ci, childKey)
		n.children = insertAt(n.children, ci+1, childSibling)
		if len(n.keys) > t.order {
			splitKey, sibling = t.splitInner(n)
		}
	}
	return replaced, splitKey, sibling
}

// splitLeaf splits an over-full leaf in half and returns the first key of
// the new right sibling as the separator.
func (t *Tree[K, V]) splitLeaf(n *node[K, V]) (K, *node[K, V]) {
	mid := len(n.keys) / 2
	right := &node[K, V]{
		keys: append([]K(nil), n.keys[mid:]...),
		vals: append([]V(nil), n.vals[mid:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	return right.keys[0], right
}

// splitInner splits an over-full inner node; the middle key moves up.
func (t *Tree[K, V]) splitInner(n *node[K, V]) (K, *node[K, V]) {
	mid := len(n.keys) / 2
	up := n.keys[mid]
	right := &node[K, V]{
		keys:     append([]K(nil), n.keys[mid+1:]...),
		children: append([]*node[K, V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return up, right
}

// minKeys is the minimum number of keys a non-root node must hold.
func (t *Tree[K, V]) minKeys() int { return t.order / 2 }

// Delete removes k and reports whether it was present.
func (t *Tree[K, V]) Delete(k K) bool {
	deleted := t.remove(t.root, k)
	if deleted {
		t.size--
	}
	// Collapse the root if it became a pass-through inner node.
	for !t.root.leaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	return deleted
}

// remove deletes k from the subtree rooted at n and rebalances children
// that underflow.
func (t *Tree[K, V]) remove(n *node[K, V], k K) bool {
	if n.leaf() {
		i := search(n, k) - 1
		if i < 0 || n.keys[i] != k {
			return false
		}
		n.keys = removeAt(n.keys, i)
		n.vals = removeAt(n.vals, i)
		return true
	}

	ci := search(n, k)
	child := n.children[ci]
	deleted := t.remove(child, k)
	if deleted && len(child.keys) < t.minKeys() {
		t.rebalance(n, ci)
	}
	return deleted
}

// rebalance fixes an underflowing child n.children[ci] by borrowing from a
// sibling or merging with one.
func (t *Tree[K, V]) rebalance(n *node[K, V], ci int) {
	if len(n.children) < 2 {
		// No sibling to borrow from or merge with; the root-collapse pass
		// in Delete shortens single-child spines.
		return
	}
	child := n.children[ci]

	// Borrow from the left sibling if it has spare keys.
	if ci > 0 {
		if left := n.children[ci-1]; len(left.keys) > t.minKeys() {
			if child.leaf() {
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, left.keys[last])
				child.vals = insertAt(child.vals, 0, left.vals[last])
				left.keys = left.keys[:last]
				left.vals = left.vals[:last]
				n.keys[ci-1] = child.keys[0]
			} else {
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, n.keys[ci-1])
				n.keys[ci-1] = left.keys[last]
				child.children = insertAt(child.children, 0, left.children[last+1])
				left.keys = left.keys[:last]
				left.children = left.children[:last+1]
			}
			return
		}
	}

	// Borrow from the right sibling if it has spare keys.
	if ci < len(n.children)-1 {
		if right := n.children[ci+1]; len(right.keys) > t.minKeys() {
			if child.leaf() {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = removeAt(right.keys, 0)
				right.vals = removeAt(right.vals, 0)
				n.keys[ci] = right.keys[0]
			} else {
				child.keys = append(child.keys, n.keys[ci])
				n.keys[ci] = right.keys[0]
				child.children = append(child.children, right.children[0])
				right.keys = removeAt(right.keys, 0)
				right.children = removeAt(right.children, 0)
			}
			return
		}
	}

	// No sibling can lend: merge with a neighbor.
	if ci > 0 {
		t.merge(n, ci-1)
	} else {
		t.merge(n, ci)
	}
}

// merge folds n.children[i+1] into n.children[i] and drops separator i.
func (t *Tree[K, V]) merge(n *node[K, V], i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = removeAt(n.keys, i)
	n.children = removeAt(n.children, i+1)
}

// AscendRange calls fn for every pair with lo <= key <= hi in ascending
// order, stopping early if fn returns false.
func (t *Tree[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	if hi < lo {
		return
	}
	t.ascendRange(t.root, lo, hi, fn)
}

// ascendRange walks the subtree at n left to right over [lo, hi]; it
// reports false once the walk is over (early stop or keys past hi).
func (t *Tree[K, V]) ascendRange(n *node[K, V], lo, hi K, fn func(k K, v V) bool) bool {
	if n.leaf() {
		i := search(n, lo)
		// search finds the first key > lo; step back over an exact match.
		if i > 0 && n.keys[i-1] == lo {
			i--
		}
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	for i := search(n, lo); i < len(n.children); i++ {
		// children[i] holds keys >= keys[i-1]; once that bound passes hi
		// nothing further can match.
		if i > 0 && n.keys[i-1] > hi {
			return false
		}
		if !t.ascendRange(n.children[i], lo, hi, fn) {
			return false
		}
	}
	return true
}

// BulkLoad builds the tree bottom-up from sorted, distinct keys with the
// given leaf fill factor in (0,1]. It replaces the tree's contents.
func (t *Tree[K, V]) BulkLoad(keys []K, vals []V, fill float64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("btree: BulkLoad: %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("btree: BulkLoad: keys not strictly ascending at index %d", i)
		}
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	perLeaf := int(float64(t.order) * fill)
	if perLeaf < 1 {
		perLeaf = 1
	}

	t.root = &node[K, V]{}
	t.height = 1
	t.size = len(keys)
	if len(keys) == 0 {
		return nil
	}

	// Build the leaf level.
	var leaves []*node[K, V]
	for at := 0; at < len(keys); at += perLeaf {
		end := min(at+perLeaf, len(keys))
		leaves = append(leaves, &node[K, V]{
			keys: append([]K(nil), keys[at:end]...),
			vals: append([]V(nil), vals[at:end]...),
		})
	}

	// Build inner levels until a single root remains.
	level := leaves
	height := 1
	perInner := max(2, int(float64(t.order)*fill))
	for len(level) > 1 {
		var parents []*node[K, V]
		for at := 0; at < len(level); {
			end := min(at+perInner, len(level))
			// Never leave a trailing singleton group: an inner node with a
			// single child would break rebalancing during later deletes.
			if len(level)-end == 1 {
				if end-at >= 3 {
					end--
				} else {
					end++
				}
			}
			group := level[at:end]
			p := &node[K, V]{children: append([]*node[K, V](nil), group...)}
			for _, c := range group[1:] {
				p.keys = append(p.keys, firstKey(c))
			}
			parents = append(parents, p)
			at = end
		}
		level = parents
		height++
	}
	t.root = level[0]
	t.height = height
	return nil
}

// firstKey returns the smallest key in the subtree rooted at n.
func firstKey[K num.Key, V any](n *node[K, V]) K {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

// Stats describes the shape and memory footprint of a tree.
type Stats struct {
	Len        int // number of key/value pairs
	Height     int // levels, 1 = root leaf
	InnerNodes int
	LeafNodes  int
	// SizeBytes estimates the index footprint using the paper's accounting:
	// 8 bytes per key and 8 bytes per pointer/value slot, both in leaves
	// and inner nodes, ignoring allocator slack.
	SizeBytes int64
}

// Stats traverses the tree and returns shape and size statistics.
func (t *Tree[K, V]) Stats() Stats {
	s := Stats{Len: t.size, Height: t.height}
	var walk func(n *node[K, V])
	walk = func(n *node[K, V]) {
		if n.leaf() {
			s.LeafNodes++
			s.SizeBytes += int64(len(n.keys)) * 16 // key + value/pointer
			return
		}
		s.InnerNodes++
		s.SizeBytes += int64(len(n.keys))*8 + int64(len(n.children))*8
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return s
}

// CheckInvariants validates structural invariants and returns an error
// describing the first violation. It is exercised heavily by tests and is
// exported so property tests in other packages can call it after driving
// the tree through random workloads.
func (t *Tree[K, V]) CheckInvariants() error {
	count := 0
	var prev *K
	var walk func(n *node[K, V], depth int, isRoot bool) (int, error)
	walk = func(n *node[K, V], depth int, isRoot bool) (int, error) {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i] <= n.keys[i-1] {
				return 0, fmt.Errorf("btree: node keys out of order at depth %d", depth)
			}
		}
		if n.leaf() {
			if len(n.keys) != len(n.vals) {
				return 0, fmt.Errorf("btree: leaf keys/vals length mismatch")
			}
			// Bulk loading may legally leave a tail leaf below the
			// order/2 minimum that insert/delete maintain, so only an
			// empty non-root leaf is a violation.
			if !isRoot && len(n.keys) == 0 {
				return 0, fmt.Errorf("btree: empty non-root leaf")
			}
			for i := range n.keys {
				if prev != nil && n.keys[i] <= *prev {
					return 0, fmt.Errorf("btree: global key order violated")
				}
				k := n.keys[i]
				prev = &k
				count++
			}
			return depth, nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("btree: inner node has %d children for %d keys", len(n.children), len(n.keys))
		}
		if !isRoot && len(n.keys) < t.minKeys() {
			// Bulk-loaded trees may have a slim spine; only enforce a
			// minimum of one child.
			if len(n.children) < 1 {
				return 0, fmt.Errorf("btree: inner node with no children")
			}
		}
		leafDepth := -1
		for _, c := range n.children {
			d, err := walk(c, depth+1, false)
			if err != nil {
				return 0, err
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if d != leafDepth {
				return 0, fmt.Errorf("btree: leaves at different depths (%d vs %d)", d, leafDepth)
			}
		}
		return leafDepth, nil
	}
	if _, err := walk(t.root, 1, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size counter %d but %d keys found", t.size, count)
	}
	return nil
}

// insertAt inserts v at index i, shifting the tail right.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeAt removes the element at index i, shifting the tail left.
func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
