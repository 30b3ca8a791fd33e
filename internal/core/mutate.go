package core

import (
	"slices"

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
	if len(t.chunks) == 0 {
		// Empty tree: create the initial page and chunk.
		var run pageRun[K, V]
		run.add(t.opts.segError(), newPage(pageSeq.Add(1), segment.Segment[K]{Start: k, Count: 1, Slope: 0}, []K{k}, []V{v}))
		t.setChunks(cutChunks(run))
		t.npages = 1
		return
	}
	cu := t.runHead(t.locate(k), k)
	p := cu.page()
	i, _ := findKey(p.bufKeys, k)
	p.bufKeys = insertAt(p.bufKeys, i, k)
	p.bufVals = insertAt(p.bufVals, i, v)
	t.buffered++
	if len(p.bufKeys) >= max(1, t.opts.BufferSize) {
		t.merge(cu)
		return
	}
	t.rehead(cu)
}

// rehead re-derives the head of the page at cu after an in-place edit —
// the one way a head follows its page (legal only on chunks the tree owns
// exclusively; see chunk).
func (t *Tree[K, V]) rehead(cu cursor[K, V]) {
	cu.c.heads[cu.pi] = headOf(cu.page(), t.opts.segError())
}

// runHead rewinds cu, the page locate returned for k, to the page Insert
// buffers k into: the first page that starts exactly at k, else cu itself —
// the last page whose start precedes k (the page covering the gap k falls
// into) or the chain's first page. MergeCOW opens its dirty regions with
// the same rule, so buffered and flushed placement of a key cannot drift
// apart.
func (t *Tree[K, V]) runHead(cu cursor[K, V], k K) cursor[K, V] {
	for cu.start() == k {
		pv, ok := t.prev(cu)
		if !ok || pv.start() != k {
			break
		}
		cu = pv
	}
	return cu
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
	for ok {
		p := cu.page()
		for j, _ := findKey(p.bufKeys, k); j < len(p.bufKeys) && p.bufKeys[j] == k; j++ {
			if pred(p.bufVals[j]) {
				p.bufKeys = removeAt(p.bufKeys, j)
				p.bufVals = removeAt(p.bufVals, j)
				t.buffered--
				t.afterDelete(cu)
				return true
			}
		}
		// seek lands on the leftmost match in the page; every duplicate of
		// k in this page is contiguous from there.
		for j, _ := t.seek(cu, k); j < len(p.keys) && p.keys[j] == k; j++ {
			if pred(p.vals[j]) {
				p.keys = removeAt(p.keys, j)
				p.vals = removeAt(p.vals, j)
				if p.pref != nil {
					p.pref = removeAt(p.pref, j)
				}
				p.deletes++
				t.deletes++
				t.afterDelete(cu)
				return true
			}
		}
		if cu, ok = t.next(cu); ok && cu.start() > k {
			return false
		}
	}
	return false
}

// afterDelete updates accounting after an in-place removal from the page
// at cu, and re-segments or drops the page when deletions have eroded it.
func (t *Tree[K, V]) afterDelete(cu cursor[K, V]) {
	t.counters.Deletes++
	t.size--
	p := cu.page()
	switch {
	case len(p.keys) == 0 && len(p.bufKeys) == 0:
		t.splicePages(cu, nil)
	case p.deletes > 0 && p.deletes+len(p.bufKeys) > max(1, t.opts.BufferSize):
		// Bound the window widening: once deletions match the buffer
		// budget, rebuild the page's model.
		t.merge(cu)
	default:
		t.rehead(cu)
	}
}

// splice returns s with s[at:at+removed] replaced by repl, in a new array.
func splice[T any](s []T, at, removed int, repl []T) []T {
	out := make([]T, 0, len(s)-removed+len(repl))
	out = append(out, s[:at]...)
	out = append(out, repl...)
	return append(out, s[at+removed:]...)
}

// splicePages replaces the page at cu with pages (possibly none), fresh
// from buildPages: no buffer, no deletes. The chain's arrays are the
// index, so the edit is the whole of it: the chunk's pages, starts and
// heads are edited together, in place (legal only because the plain Tree
// owns its chunks exclusively — published chunks are never spliced, see
// chunk); a chunk that outgrows chunkMax is then re-cut into fresh
// chunks, one left empty is dropped from the chain, and otherwise the
// tree's start array follows the chunk's first page.
func (t *Tree[K, V]) splicePages(cu cursor[K, V], pages []*page[K, V]) {
	c := cu.c
	t.npages += len(pages) - 1
	t.buffered -= len(cu.page().bufKeys)
	t.deletes -= cu.page().deletes
	var repl pageRun[K, V]
	repl.add(t.opts.segError(), pages...)
	c.pages = slices.Replace(c.pages, cu.pi, cu.pi+1, repl.pages...)
	c.starts = slices.Replace(c.starts, cu.pi, cu.pi+1, repl.starts...)
	c.heads = slices.Replace(c.heads, cu.pi, cu.pi+1, repl.heads...)
	switch n := len(c.pages); {
	case n == 0:
		t.setChunks(splice(t.chunks, cu.ci, 1, nil))
	case n > chunkMax:
		t.setChunks(splice(t.chunks, cu.ci, 1, cutChunks(c.pageRun)))
	default:
		t.starts[cu.ci] = c.start()
	}
}

// merge combines the page at cu with its buffer into one sorted run,
// re-segments it with the bulk-loading algorithm (buildPages, the fold's
// page builder, so every page owns its arrays), and splices the resulting
// page(s) into the chain in place of it (Algorithm 4 lines 5-9).
func (t *Tree[K, V]) merge(cu cursor[K, V]) {
	p := cu.page()
	keys, vals := mergeSorted(p.keys, p.vals, p.bufKeys, p.bufVals)
	pages := t.buildPages(keys, vals, &t.counters)
	stampIDs([][]*page[K, V]{pages})
	t.splicePages(cu, pages)
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
