// Package baseline implements the three competitors FITing-Tree is
// evaluated against in the paper (Section 7.1):
//
//   - Full: a dense B+ tree with one entry per distinct key (the paper's
//     "full index", the lookup-latency best case and the largest index).
//   - Fixed: a sparse clustered index over fixed-size pages that stores
//     only the first key of each page (the paper's "fixed-sized paging"),
//     with the same buffered-insert and page-split strategy FITing-Tree
//     uses so the comparison is apples to apples.
//   - BinarySearch: plain binary search over the sorted data, the zero-
//     space extreme of the size/latency trade-off.
//
// All three are built on the same internal/btree substrate as FITing-Tree
// itself, mirroring the paper's use of the STX-tree for every competitor.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"fitingtree/internal/btree"
	"fitingtree/internal/num"
)

// nowNanos returns a monotonic-ish wall clock reading for phase timing.
func nowNanos() int64 { return time.Now().UnixNano() }

// Full is a dense B+ tree index: one entry per distinct key, mapping to the
// key's first position in the data. It is the paper's best-case baseline
// for lookup latency and its worst case for space.
type Full[K num.Key, V any] struct {
	tr *btree.Tree[K, V]
}

// NewFull bulk-loads a dense index over sorted keys. Duplicate keys keep
// their first value (a dense index stores one entry per distinct key).
func NewFull[K num.Key, V any](keys []K, vals []V, fanout int) (*Full[K, V], error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("baseline: %d keys but %d values", len(keys), len(vals))
	}
	dk := make([]K, 0, len(keys))
	dv := make([]V, 0, len(vals))
	for i := range keys {
		if i > 0 && keys[i] == keys[i-1] {
			continue
		}
		dk = append(dk, keys[i])
		dv = append(dv, vals[i])
	}
	tr := btree.New[K, V](fanout)
	if err := tr.BulkLoad(dk, dv, 1); err != nil {
		return nil, err
	}
	return &Full[K, V]{tr: tr}, nil
}

// Lookup returns the value stored under k.
func (f *Full[K, V]) Lookup(k K) (V, bool) { return f.tr.Get(k) }

// Insert stores v under k (replacing the value of an existing key, as a
// dense unique index does).
func (f *Full[K, V]) Insert(k K, v V) { f.tr.Insert(k, v) }

// Len returns the number of distinct indexed keys.
func (f *Full[K, V]) Len() int { return f.tr.Len() }

// AscendRange calls fn for indexed entries with lo <= key <= hi in order.
func (f *Full[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	f.tr.AscendRange(lo, hi, fn)
}

// SizeBytes returns the index footprint under the paper's 8-bytes-per-
// key/pointer accounting.
func (f *Full[K, V]) SizeBytes() int64 { return f.tr.Stats().SizeBytes }

// Stats exposes the underlying tree statistics.
func (f *Full[K, V]) Stats() btree.Stats { return f.tr.Stats() }

// fpage is one fixed-size data page plus its insert buffer.
type fpage[K num.Key, V any] struct {
	start   K // routing key (first key at page build time)
	keys    []K
	vals    []V
	bufKeys []K
	bufVals []V
	inTree  bool
	next    *fpage[K, V]
	prev    *fpage[K, V]
}

func (p *fpage[K, V]) lastKey() K {
	k := p.keys[len(p.keys)-1]
	if len(p.bufKeys) > 0 && p.bufKeys[len(p.bufKeys)-1] > k {
		k = p.bufKeys[len(p.bufKeys)-1]
	}
	return k
}

// Fixed is a sparse clustered index over fixed-size pages: the inner tree
// holds one entry per page (its first key). Lookups binary-search the whole
// page, so the page size plays the role FITing-Tree's error threshold
// plays: a page of size E costs the same bounded search as a segment with
// error E (the paper pairs them in Figures 6, 7, 9, 13).
type Fixed[K num.Key, V any] struct {
	pageSize int // max data elements per page
	bufSize  int // insert buffer capacity per page
	idx      *btree.Tree[K, *fpage[K, V]]
	first    *fpage[K, V]
	size     int
	splits   int
}

// NewFixed bulk-loads a fixed-page index with the given page size. The
// insert buffer per page is pageSize/2, matching the paper's setup for the
// insert experiments.
func NewFixed[K num.Key, V any](keys []K, vals []V, pageSize, fanout int) (*Fixed[K, V], error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("baseline: %d keys but %d values", len(keys), len(vals))
	}
	if pageSize < 1 {
		return nil, fmt.Errorf("baseline: page size %d < 1", pageSize)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return nil, fmt.Errorf("baseline: keys not sorted at index %d", i)
		}
	}
	f := &Fixed[K, V]{
		pageSize: pageSize,
		bufSize:  max(1, pageSize/2),
		idx:      btree.New[K, *fpage[K, V]](fanout),
		size:     len(keys),
	}
	var treeKeys []K
	var treeVals []*fpage[K, V]
	var prev *fpage[K, V]
	for at := 0; at < len(keys); at += pageSize {
		end := min(at+pageSize, len(keys))
		p := &fpage[K, V]{
			start: keys[at],
			keys:  append([]K(nil), keys[at:end]...),
			vals:  append([]V(nil), vals[at:end]...),
			prev:  prev,
		}
		if prev == nil {
			f.first = p
		} else {
			prev.next = p
		}
		if prev == nil || prev.start != p.start {
			p.inTree = true
			treeKeys = append(treeKeys, p.start)
			treeVals = append(treeVals, p)
		}
		prev = p
	}
	if err := f.idx.BulkLoad(treeKeys, treeVals, 1); err != nil {
		return nil, err
	}
	return f, nil
}

// locate returns the page whose range contains k.
func (f *Fixed[K, V]) locate(k K) *fpage[K, V] {
	if f.first == nil {
		return nil
	}
	_, p, ok := f.idx.Floor(k)
	if !ok {
		return f.first
	}
	for p.prev != nil && p.prev.lastKey() >= k {
		p = p.prev
	}
	return p
}

// Lookup returns a value stored under k.
func (f *Fixed[K, V]) Lookup(k K) (V, bool) {
	for p := f.locate(k); p != nil; p = p.next {
		if i, ok := search(p.keys, k); ok {
			return p.vals[i], true
		}
		if i, ok := search(p.bufKeys, k); ok {
			return p.bufVals[i], true
		}
		if p.next == nil || p.next.start > k {
			break
		}
	}
	var zero V
	return zero, false
}

// LookupBreakdown is Lookup with wall-clock timing of the tree-search and
// page-search phases (Figure 13's competitor side).
func (f *Fixed[K, V]) LookupBreakdown(k K) (v V, ok bool, treeNs, pageNs int64) {
	t0 := nowNanos()
	p := f.locate(k)
	treeNs = nowNanos() - t0
	t0 = nowNanos()
	for ; p != nil; p = p.next {
		if i, found := search(p.keys, k); found {
			v, ok = p.vals[i], true
			break
		}
		if i, found := search(p.bufKeys, k); found {
			v, ok = p.bufVals[i], true
			break
		}
		if p.next == nil || p.next.start > k {
			break
		}
	}
	pageNs = nowNanos() - t0
	return v, ok, treeNs, pageNs
}

// Insert adds (k, v) to the owning page's buffer; a full buffer merges into
// the page, which then splits into fixed-size pages.
func (f *Fixed[K, V]) Insert(k K, v V) {
	f.size++
	p := f.locate(k)
	if p == nil {
		p = &fpage[K, V]{start: k, keys: []K{k}, vals: []V{v}, inTree: true}
		f.first = p
		f.idx.Insert(k, p)
		return
	}
	i, _ := search(p.bufKeys, k)
	p.bufKeys = insertAt(p.bufKeys, i, k)
	p.bufVals = insertAt(p.bufVals, i, v)
	if len(p.bufKeys) >= f.bufSize {
		f.split(p)
	}
}

// split merges a page with its buffer and re-chops it into fixed-size
// pages.
func (f *Fixed[K, V]) split(p *fpage[K, V]) {
	f.splits++
	mergedK := make([]K, 0, len(p.keys)+len(p.bufKeys))
	mergedV := make([]V, 0, len(p.keys)+len(p.bufKeys))
	i, j := 0, 0
	for i < len(p.keys) && j < len(p.bufKeys) {
		if p.keys[i] <= p.bufKeys[j] {
			mergedK = append(mergedK, p.keys[i])
			mergedV = append(mergedV, p.vals[i])
			i++
		} else {
			mergedK = append(mergedK, p.bufKeys[j])
			mergedV = append(mergedV, p.bufVals[j])
			j++
		}
	}
	mergedK = append(mergedK, p.keys[i:]...)
	mergedV = append(mergedV, p.vals[i:]...)
	mergedK = append(mergedK, p.bufKeys[j:]...)
	mergedV = append(mergedV, p.bufVals[j:]...)

	var pages []*fpage[K, V]
	for at := 0; at < len(mergedK); at += f.pageSize {
		end := min(at+f.pageSize, len(mergedK))
		np := &fpage[K, V]{
			start: mergedK[at],
			keys:  mergedK[at:end:end],
			vals:  mergedV[at:end:end],
		}
		if len(pages) > 0 {
			pages[len(pages)-1].next = np
			np.prev = pages[len(pages)-1]
		}
		pages = append(pages, np)
	}

	prevP, nextP := p.prev, p.next
	head, tail := pages[0], pages[len(pages)-1]
	if prevP == nil {
		f.first = head
	} else {
		prevP.next = head
		head.prev = prevP
	}
	tail.next = nextP
	if nextP != nil {
		nextP.prev = tail
	}
	if p.inTree {
		f.idx.Delete(p.start)
	}
	for i, np := range pages {
		if i > 0 && pages[i-1].start == np.start {
			continue
		}
		np.inTree = true
		if f.idx.Insert(np.start, np) && nextP != nil && nextP.start == np.start {
			nextP.inTree = false
		}
	}
}

// Len returns the number of stored elements, including buffered inserts.
func (f *Fixed[K, V]) Len() int { return f.size }

// Splits returns the number of page split events since the build.
func (f *Fixed[K, V]) Splits() int { return f.splits }

// Pages returns the number of data pages.
func (f *Fixed[K, V]) Pages() int {
	n := 0
	for p := f.first; p != nil; p = p.next {
		n++
	}
	return n
}

// SizeBytes returns the sparse index footprint: the inner tree (whose leaf
// entries are the one key + pointer stored per page).
func (f *Fixed[K, V]) SizeBytes() int64 { return f.idx.Stats().SizeBytes }

// Ascend visits all elements in key order (used by tests).
func (f *Fixed[K, V]) Ascend(fn func(k K, v V) bool) {
	for p := f.first; p != nil; p = p.next {
		i, j := 0, 0
		for i < len(p.keys) || j < len(p.bufKeys) {
			useData := j >= len(p.bufKeys) || (i < len(p.keys) && p.keys[i] <= p.bufKeys[j])
			if useData {
				if !fn(p.keys[i], p.vals[i]) {
					return
				}
				i++
			} else {
				if !fn(p.bufKeys[j], p.bufVals[j]) {
					return
				}
				j++
			}
		}
	}
}

// CheckInvariants validates the fixed index's structure.
func (f *Fixed[K, V]) CheckInvariants() error {
	if err := f.idx.CheckInvariants(); err != nil {
		return fmt.Errorf("baseline: inner tree: %w", err)
	}
	count := 0
	var prev *fpage[K, V]
	for p := f.first; p != nil; p = p.next {
		if p.prev != prev {
			return fmt.Errorf("baseline: broken back link at %v", p.start)
		}
		if len(p.keys) == 0 {
			return fmt.Errorf("baseline: empty page at %v", p.start)
		}
		if len(p.keys) > f.pageSize {
			return fmt.Errorf("baseline: oversized page (%d > %d) at %v", len(p.keys), f.pageSize, p.start)
		}
		for i := 1; i < len(p.keys); i++ {
			if p.keys[i] < p.keys[i-1] {
				return fmt.Errorf("baseline: page out of order at %v", p.start)
			}
		}
		wantInTree := prev == nil || prev.start != p.start
		if p.inTree != wantInTree {
			return fmt.Errorf("baseline: page %v inTree=%v want %v", p.start, p.inTree, wantInTree)
		}
		count += len(p.keys) + len(p.bufKeys)
		prev = p
	}
	if count != f.size {
		return fmt.Errorf("baseline: size %d but %d elements found", f.size, count)
	}
	return nil
}

// BinarySearch is the index-free baseline: the sorted data itself, searched
// with binary search. Its index size is zero.
type BinarySearch[K num.Key, V any] struct {
	keys []K
	vals []V
}

// NewBinarySearch wraps sorted data. The slices are retained, not copied.
func NewBinarySearch[K num.Key, V any](keys []K, vals []V) (*BinarySearch[K, V], error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("baseline: %d keys but %d values", len(keys), len(vals))
	}
	return &BinarySearch[K, V]{keys: keys, vals: vals}, nil
}

// Lookup binary-searches the full array.
func (b *BinarySearch[K, V]) Lookup(k K) (V, bool) {
	if i, ok := search(b.keys, k); ok {
		return b.vals[i], true
	}
	var zero V
	return zero, false
}

// Len returns the number of elements.
func (b *BinarySearch[K, V]) Len() int { return len(b.keys) }

// SizeBytes is always zero: binary search needs no index structure.
func (b *BinarySearch[K, V]) SizeBytes() int64 { return 0 }

// search finds the first index of k in a sorted slice.
func search[K num.Key](keys []K, k K) (int, bool) {
	i := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
	return i, i < len(keys) && keys[i] == k
}

// insertAt inserts v at index i, shifting the tail right.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
