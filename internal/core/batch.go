package core

import "slices"

// maxChainWalk bounds how many pages a sorted batch advances along the
// chain before falling back to a fresh locate: consecutive sorted probes
// usually land on the same or an adjacent page, but a large key gap is
// cheaper to cross through the start arrays than one page at a time.
const maxChainWalk = 16

// LookupBatch performs Lookup for every element of keys and returns values
// and found flags parallel to keys. An ascending probe set (common when the
// batch comes from a sorted join side) amortizes the start-array searches
// by walking the page chain forward between probes; any other order is
// answered key by key through Lookup. Duplicate semantics match Lookup: an
// arbitrary match is returned.
func (t *Tree[K, V]) LookupBatch(keys []K) ([]V, []bool) {
	vals := make([]V, len(keys))
	found := make([]bool, len(keys))
	if len(t.chunks) == 0 || len(keys) == 0 {
		return vals, found
	}
	if slices.IsSorted(keys) {
		t.lookupBatchSorted(keys, vals, found)
		return vals, found
	}
	for i, k := range keys {
		vals[i], found[i] = t.Lookup(k)
	}
	return vals, found
}

// lookupBatchSorted serves an ascending probe set: each probe starts from
// the page the previous one was located on and advances along the chain, so
// keys routed to the same page run cost one locate total.
func (t *Tree[K, V]) lookupBatchSorted(keys []K, vals []V, found []bool) {
	cu := t.locate(keys[0])
	for n, k := range keys {
		// Probes ascend, so the owning page can only move forward.
		for i := 0; ; i++ {
			nx, has := t.next(cu)
			if !has || nx.start() > k {
				break
			}
			if i == maxChainWalk {
				cu = t.locate(k)
				break
			}
			cu = nx
		}
		vals[n], found[n] = t.lookupAt(cu, k)
	}
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
