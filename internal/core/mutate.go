package core

import (
	"sync/atomic"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// Insert adds (k, v) to the tree (Algorithm 4). The key is routed to its
// page's sorted insert buffer; a full buffer triggers a merge with the page
// data followed by re-segmentation, which preserves the error guarantee.
// Duplicate keys are allowed and stored alongside existing ones.
func (t *Tree[K, V]) Insert(k K, v V) {
	if k != k {
		panic("fitingtree: Insert with NaN key")
	}
	t.counters.Inserts++
	t.size++
	cu, ok := t.insertCursor(k)
	if !ok {
		// Empty tree: create the initial page and chunk.
		p := newPage(pageSeq.Add(1), segment.Segment[K]{Start: k, Count: 1, Slope: 0}, []K{k}, []V{v}, t.segErrFor(k))
		t.chunks, t.npages = []*chunk[K, V]{newChunk([]*page[K, V]{p})}, 1
		t.idx.insert(k, p)
		return
	}
	p := t.pageOf(cu)
	i, _ := findKey(p.bufKeys, k)
	p.bufKeys = insertAt(p.bufKeys, i, k)
	p.bufVals = insertAt(p.bufVals, i, v)
	if len(p.bufKeys) >= num.MaxInt(1, t.opts.BufferSize) {
		t.merge(cu)
	}
}

// insertCursor returns the page Insert buffers k into; ok is false for an
// empty tree. The router maps to the first page of an equal-start run; the
// key may belong to a later page of the run (or to the page covering the
// gap after it), so advance to the last page whose routing key precedes k.
// MergeCOW opens its dirty regions with the same rule, so buffered and
// flushed placement of a key cannot drift apart.
func (t *Tree[K, V]) insertCursor(k K) (cursor[K, V], bool) {
	cu, ok := t.locateCursor(k)
	if !ok {
		return cu, false
	}
	for {
		nx, has := t.next(cu)
		if !has || t.pageOf(nx).start() >= k {
			return cu, true
		}
		cu = nx
	}
}

// Delete removes one element with key k and reports whether one was found.
// Buffered elements are removed directly; elements in page data are removed
// in place, which widens that page's effective search window by one until
// the next re-segmentation (deletes are an extension over the paper, which
// covers only lookups and inserts).
func (t *Tree[K, V]) Delete(k K) bool {
	return t.DeleteWhere(k, func(V) bool { return true })
}

// DeleteValue removes the first element with key k whose value equals v
// under Go equality, reporting whether one was removed. Unlike Delete,
// the victim among distinct-valued duplicates is named by the caller, so
// the outcome cannot depend on scan order. It panics for non-comparable
// value types.
func (t *Tree[K, V]) DeleteValue(k K, v V) bool {
	return t.DeleteWhere(k, func(w V) bool { return valueEq(w, v) })
}

// DeleteWhere removes the first element with key k whose value satisfies
// pred, reporting whether one was removed. It lets callers disambiguate
// duplicates (e.g. a secondary index deleting one specific row posting).
func (t *Tree[K, V]) DeleteWhere(k K, pred func(V) bool) bool {
	cu, ok := t.firstCandidate(k)
	if !ok {
		return false
	}
	for {
		p := t.pageOf(cu)
		if i, ok := findKey(p.bufKeys, k); ok {
			for j := i; j < len(p.bufKeys) && p.bufKeys[j] == k; j++ {
				if pred(p.bufVals[j]) {
					p.bufKeys = removeAt(p.bufKeys, j)
					p.bufVals = removeAt(p.bufVals, j)
					t.afterDelete(cu)
					return true
				}
			}
		}
		if i, ok := p.dataSearch(k, p.werr, t.strat); ok {
			// dataSearch returns the leftmost match in the page; every
			// duplicate of k in this page is contiguous from there.
			for j := i; j < len(p.keys) && p.keys[j] == k; j++ {
				if pred(p.vals[j]) {
					p.keys = removeAt(p.keys, j)
					p.vals = removeAt(p.vals, j)
					if p.pref != nil {
						p.pref = removeAt(p.pref, j)
					}
					p.deletes++
					t.afterDelete(cu)
					return true
				}
			}
		}
		nx, has := t.next(cu)
		if !has || t.pageOf(nx).start() > k {
			return false
		}
		cu = nx
	}
}

// afterDelete updates accounting and re-segments or drops the page at cu
// when deletions have eroded it.
func (t *Tree[K, V]) afterDelete(cu cursor[K, V]) {
	t.counters.Deletes++
	t.size--
	p := t.pageOf(cu)
	if len(p.keys) == 0 && len(p.bufKeys) == 0 {
		t.removePage(cu)
		return
	}
	// Bound the window widening: once deletions match the buffer budget,
	// rebuild the page's model.
	if p.deletes > 0 && p.deletes+len(p.bufKeys) > num.MaxInt(1, t.opts.BufferSize) {
		t.merge(cu)
	}
}

// spliceChunks replaces chunks [ci, ci+removed) of s with repl.
func spliceChunks[K num.Key, V any](s []*chunk[K, V], ci, removed int, repl []*chunk[K, V]) []*chunk[K, V] {
	out := make([]*chunk[K, V], 0, len(s)-removed+len(repl))
	out = append(out, s[:ci]...)
	out = append(out, repl...)
	out = append(out, s[ci+removed:]...)
	return out
}

// splicePages replaces `removed` pages of cu's chunk starting at cu.pi
// with pages. The edit is purely structural — the router addresses pages
// directly, so only the caller's entry edits for the removed and added
// pages matter, and no other entry is touched. If the result fits
// chunkMax the chunk's spine is rewritten in place (legal only because
// the plain Tree owns its chunks exclusively — published chunks are never
// spliced, see chunk); an oversized result is re-cut into fresh chunks
// and an emptied chunk is dropped from the chain.
func (t *Tree[K, V]) splicePages(cu cursor[K, V], removed int, pages []*page[K, V]) {
	c := cu.c
	t.npages += len(pages) - removed
	np := make([]*page[K, V], 0, len(c.pages)-removed+len(pages))
	np = append(np, c.pages[:cu.pi]...)
	np = append(np, pages...)
	np = append(np, c.pages[cu.pi+removed:]...)
	switch {
	case len(np) == 0:
		t.chunks = spliceChunks(t.chunks, cu.ci, 1, nil)
	case len(np) > chunkMax:
		t.chunks = spliceChunks(t.chunks, cu.ci, 1, cutChunksPlan(np, t.tune.planOf()))
	default:
		c.pages = np
	}
}

// reindexSplice maintains the router across a splice that replaces the
// page at cu with pages (possibly none): the replaced page's entry is
// deleted if it was routed, entries are inserted for every new page that
// heads an equal-start run, and the first surviving page after the splice
// is re-registered if its run-head role changed. Inserting a run head's
// entry also displaces, by key, the stale entry of a page that just lost
// that role. Everything else in the router — in this chunk and every
// other — addresses pages the splice carries and stays untouched.
//
// Callers invoke it BEFORE the structural splice, passing the replacement
// pages, because it derives run boundaries from the pre-splice neighbors.
func (t *Tree[K, V]) reindexSplice(cu cursor[K, V], pages []*page[K, V]) {
	old := t.pageOf(cu)
	if t.isRouted(cu) {
		t.idx.delete(old.start())
	}
	var pred *page[K, V]
	if pv, ok := t.prev(cu); ok {
		pred = t.pageOf(pv)
	}
	for _, np := range pages {
		if pred == nil || pred.start() != np.start() {
			t.idx.insert(np.start(), np)
		}
		pred = np
	}
	// The page following the splice: routed now iff its start differs
	// from the last new page's (or the splice predecessor's, when the
	// page was removed without replacement).
	if nx, ok := t.next(cu); ok {
		after := t.pageOf(nx)
		if pred == nil || pred.start() != after.start() {
			t.idx.insert(after.start(), after)
		}
	}
}

// merge combines the page at cu with its buffer into one sorted run,
// re-segments it with the bulk-loading algorithm, and splices the
// resulting page(s) into the chain in place of it (Algorithm 4 lines 5-9).
func (t *Tree[K, V]) merge(cu cursor[K, V]) {
	t.counters.Merges++
	p := t.pageOf(cu)
	mergedKeys, mergedVals := mergeSorted(p.keys, p.vals, p.bufKeys, p.bufVals)
	if len(mergedKeys) == 0 {
		t.removePage(cu)
		return
	}
	// The run spans a single page's key range, so one region target
	// applies; a retuned region takes effect here on the next merge.
	segErr := t.segErrFor(mergedKeys[0])
	segs := segment.ShrinkingCone(mergedKeys, segErr)
	t.counters.PagesMade += len(segs)

	pages := make([]*page[K, V], len(segs))
	for i, s := range segs {
		pages[i] = newPage(
			pageSeq.Add(1),
			segment.Segment[K]{Start: s.Start, StartPos: 0, Count: s.Count, Slope: s.Slope},
			// Sub-slicing the merged run is safe: pages never grow their
			// data in place, and in-place deletions stay within a page's
			// own window of the backing array.
			mergedKeys[s.StartPos:s.EndPos():s.EndPos()],
			mergedVals[s.StartPos:s.EndPos():s.EndPos()],
			segErr,
		)
	}
	carryLoad(atomic.LoadUint64(&p.reads), atomic.LoadUint64(&p.writes),
		len(p.bufKeys)+p.deletes, pages)

	t.reindexSplice(cu, pages)
	t.splicePages(cu, 1, pages)
}

// removePage splices an empty page out of the chain and the router; the
// reindex pass promotes the next page of an equal-start run into the
// router if the removed page headed one.
func (t *Tree[K, V]) removePage(cu cursor[K, V]) {
	t.reindexSplice(cu, nil)
	t.splicePages(cu, 1, nil)
}

// mergeSorted merges two sorted key runs (with parallel values) into fresh
// slices; equal keys keep data-before-buffer order.
func mergeSorted[K num.Key, V any](aK []K, aV []V, bK []K, bV []V) ([]K, []V) {
	outK := make([]K, 0, len(aK)+len(bK))
	outV := make([]V, 0, len(aK)+len(bK))
	i, j := 0, 0
	for i < len(aK) && j < len(bK) {
		if aK[i] <= bK[j] {
			outK = append(outK, aK[i])
			outV = append(outV, aV[i])
			i++
		} else {
			outK = append(outK, bK[j])
			outV = append(outV, bV[j])
			j++
		}
	}
	outK = append(outK, aK[i:]...)
	outV = append(outV, aV[i:]...)
	outK = append(outK, bK[j:]...)
	outV = append(outV, bV[j:]...)
	return outK, outV
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
