package bench

import (
	"sync"

	"fitingtree"
)

// Concurrent is the RWMutex comparison baseline for the latch-free
// facades: a reader/writer-safe wrapper over a Tree whose lookups and scans
// take a shared lock, mutations an exclusive one. It matches the paper's
// single-writer evaluation setup while letting multiple reader goroutines
// share the index.
type Concurrent[K fitingtree.Key, V any] struct {
	mu sync.RWMutex
	t  *fitingtree.Tree[K, V]
}

// NewConcurrent wraps an existing tree. The tree must not be used directly
// afterwards.
func NewConcurrent[K fitingtree.Key, V any](t *fitingtree.Tree[K, V]) *Concurrent[K, V] {
	return &Concurrent[K, V]{t: t}
}

// Lookup returns a value stored under k.
func (c *Concurrent[K, V]) Lookup(k K) (V, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Lookup(k)
}

// Contains reports whether k is present.
func (c *Concurrent[K, V]) Contains(k K) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Contains(k)
}

// Each calls fn for every element with key exactly k. fn must not call
// back into the index.
func (c *Concurrent[K, V]) Each(k K, fn func(v V) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.Each(k, fn)
}

// AscendRange calls fn for elements with lo <= key <= hi in order. fn must
// not call back into the index.
func (c *Concurrent[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.AscendRange(lo, hi, fn)
}

// LookupBatch looks up every element of keys under one shared lock
// acquisition, returning values and found flags parallel to keys (see
// Tree.LookupBatch).
func (c *Concurrent[K, V]) LookupBatch(keys []K) ([]V, []bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.LookupBatch(keys)
}

// Insert adds (k, v).
func (c *Concurrent[K, V]) Insert(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Insert(k, v)
}

// Delete removes one element with key k.
func (c *Concurrent[K, V]) Delete(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Delete(k)
}

// DeleteValue removes one element with key k whose value equals v under
// Go equality, reporting whether one was removed. It panics for
// non-comparable value types.
func (c *Concurrent[K, V]) DeleteValue(k K, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.DeleteValue(k, v)
}

// Len returns the number of stored elements.
func (c *Concurrent[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

// Stats returns the tree's statistics.
func (c *Concurrent[K, V]) Stats() fitingtree.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Stats()
}
