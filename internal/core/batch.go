package core

import "fitingtree/internal/num"

// batchGroup is how many keys move through the batch kernel's stages
// together, a line fill in flight for each; measured, 8 to 64 read the same.
const batchGroup = 16

// probe is what one key of a group carries from stage to stage.
type probe[K num.Key, V any] struct {
	t      *Tree[K, V]  // the tree that owns the key
	c      *chunk[K, V] // the located chunk (nil: t is empty), ci its index in t, pi the page in it
	ci, pi int
	h      *pageHead[K, V] // the located page's head; nil once the key is answered
	lo, hi int             // the model's window
	at     int             // the predicted slot, clamped into the data; after finish, the hit's slot
	near   K               // keys[at], loaded by touch
}

// LookupBatch performs Lookup for every element of keys and returns values
// and found flags parallel to keys. One lookup's memory accesses depend on
// each other, those of different keys do not: the batch goes through the
// staged kernel (LookupFenced), which keeps the cache misses of sixteen
// keys in flight at once. Duplicate semantics match Lookup: an arbitrary
// match is returned.
func (t *Tree[K, V]) LookupBatch(keys []K) ([]V, []bool) {
	vals := make([]V, len(keys))
	found := make([]bool, len(keys))
	LookupFenced(nil, []*Tree[K, V]{t}, keys, vals, found)
	return vals, found
}

// LookupFenced is the batch lookup kernel, over a key space range-partitioned
// into trees by fences: tree i holds the keys in [fences[i-1], fences[i]),
// the first and last ranges open-ended, so len(trees) == len(fences)+1 (one
// tree, no fence: Tree.LookupBatch). It writes the answer for keys[n] to
// vals[n] and found[n], which must be as long as keys, exactly as the
// owning tree's Lookup would give it.
//
// Keys move through five stages in groups of batchGroup — route, predict,
// touch, finish, gather — every stage a tight loop over the group, so that
// what one key waits for in a stage the others wait for at the same time.
func LookupFenced[K num.Key, V any](fences []K, trees []*Tree[K, V], keys []K, vals []V, found []bool) {
	var g [batchGroup]probe[K, V]
	r := router[K, V]{fences: fences, trees: trees, asc: true}
	for i := 1; r.asc && i < len(keys); i++ {
		r.asc = keys[i-1] <= keys[i] // a NaN ascends from nothing
	}
	for len(keys) > 0 {
		n := min(batchGroup, len(keys))
		group := g[:n]
		r.route(group, keys[:n])
		predict(group, keys[:n], vals[:n], found[:n])
		touch(group)
		finish(group, keys[:n], vals[:n], found[:n])
		gather(group, vals[:n], found[:n])
		keys, vals, found = keys[n:], vals[n:], found[n:]
	}
}

// router is the route stage and what it keeps from key to key: when the
// batch ascends (asc), where the key before was located. A key is located
// there too unless the next chunk, or page, starts at or below it — one
// compare in place of each search, which only pays when keys ascend.
type router[K num.Key, V any] struct {
	fences []K
	trees  []*Tree[K, V]
	asc    bool
	t      *Tree[K, V]
	c      *chunk[K, V]
	ci, pi int
}

// route locates every key of the group: its tree and chunk in one pass, the
// page within the chunk in a second, so that the chunks' start arrays are
// fetched side by side. A key of an empty tree is left with a nil chunk.
func (r *router[K, V]) route(group []probe[K, V], keys []K) {
	for i := range group {
		p, k := &group[i], keys[i]
		p.t, p.c = r.trees[boundFree(r.fences, k)], nil
		if len(p.t.chunks) == 0 {
			continue
		}
		if !r.asc || p.t != r.t || (r.ci+1 < len(p.t.starts) && k >= p.t.starts[r.ci+1]) {
			r.t, r.ci = p.t, max(boundFree(p.t.starts, k)-1, 0)
		}
		p.ci, p.c = r.ci, p.t.chunks[r.ci]
	}
	for i := range group {
		p, k := &group[i], keys[i]
		if p.c == nil {
			continue
		}
		if !r.asc || p.c != r.c || (r.pi+1 < len(p.c.starts) && k >= p.c.starts[r.pi+1]) {
			r.c, r.pi = p.c, max(boundFree(p.c.starts, k)-1, 0)
		}
		p.pi = r.pi
	}
}

// predict reads every located page's head and computes the model's window.
// A key outside the kernel's shape — its page's head has a flag set (the
// page has buffered inserts or string keys), it equals
// its page's start (matches may sit in earlier pages), or its tree is empty
// — is answered here, by lookupAt, and leaves the group (nil head).
func predict[K num.Key, V any](group []probe[K, V], keys []K, vals []V, found []bool) {
	var xs [batchGroup]float64
	num.ApproxInto(xs[:], keys)
	for i := range group {
		p, k := &group[i], keys[i]
		p.h = nil
		if p.c == nil {
			vals[i], found[i] = *new(V), false
			continue
		}
		h := &p.c.heads[p.pi]
		if h.flags != 0 || len(h.keys) == 0 || p.c.starts[p.pi] == k {
			vals[i], found[i] = p.t.lookupAt(cursor[K, V]{c: p.c, pi: p.pi, ci: p.ci}, k)
			continue
		}
		p.h = h
		p.lo, p.hi, p.at = h.window(xs[i])
		p.at = min(p.at, len(h.keys)-1)
	}
}

// touch loads every predicted slot: the group's misses on the key arrays,
// in flight together. Go has no prefetch: finish uses the loaded key.
func touch[K num.Key, V any](group []probe[K, V]) {
	for i := range group {
		if p := &group[i]; p.h != nil {
			p.near = p.h.keys[p.at]
		}
	}
}

// finish runs the tree's window search for every key, on the half of the
// window the touched key leaves — k's lower bound is right of a smaller
// key, at or left of any other — and answers the misses.
func finish[K num.Key, V any](group []probe[K, V], keys []K, vals []V, found []bool) {
	for i := range group {
		p, k := &group[i], keys[i]
		if p.h == nil {
			continue
		}
		lo, hi, at := p.lo, p.at, p.at
		if p.near < k {
			lo, hi, at = p.at+1, p.hi, p.at+1
		}
		p.at = windowSeek(p.h.keys, lo, hi, at, k)
		if p.at == len(p.h.keys) || p.h.keys[p.at] != k {
			vals[i], found[i], p.h = *new(V), false, nil
		}
	}
}

// gather loads the hits' values: the group's misses on the value arrays,
// in flight together.
func gather[K num.Key, V any](group []probe[K, V], vals []V, found []bool) {
	for i := range group {
		if p := &group[i]; p.h != nil {
			vals[i], found[i] = p.h.vals[p.at], true
		}
	}
}

// window returns the bounds [lo, hi) of the 2w+1 window around the model's
// prediction for the key num.Approx projects to x, and the prediction, at
// in [lo, hi]: rounded to nearest, clamped before any conversion to int.
func (h *pageHead[K, V]) window(x float64) (lo, hi, at int) {
	n := len(h.keys)
	if pred := (x - h.x0) * h.slope; pred > 0 {
		at = n
		if pred < float64(n) {
			at = int(pred + 0.5)
		}
	}
	return max(at-h.w, 0), min(at+h.w+1, n), at
}

// boundFree is upperBound for the kernel: the index of the first key > k in
// sorted keys, in a number of steps that depends on len(keys) alone and
// with no branch on a comparison's outcome — each becomes a mask (SETcc,
// NEG, AND, ADD; Go emits no conditional move for a compare fed by a
// load) — so the routing of consecutive keys overlaps. A single Lookup has
// nothing to overlap with and keeps the branching upperBound.
func boundFree[K num.Key](keys []K, k K) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		b := 0
		if keys[base+half] <= k {
			b = 1
		}
		base += half & -b
		n -= half
	}
	b := 0
	if keys[base] <= k {
		b = 1
	}
	return base + b
}

// searchRun searches forward from cu across the pages that may contain k,
// exactly as Lookup does.
func (t *Tree[K, V]) searchRun(cu cursor[K, V], k K) (V, bool) {
	for {
		if v, ok := t.searchPage(cu, k); ok {
			return v, true
		}
		nx, has := t.next(cu)
		if !has || nx.start() > k {
			var zero V
			return zero, false
		}
		cu = nx
	}
}
