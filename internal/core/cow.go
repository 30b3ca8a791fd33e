package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// MergeOp describes the pending writes for one key in a copy-on-write
// merge. Adds holds values to insert under Key, in insertion order.
//
// Tombstones come in two representations, of which an op uses at most
// one. Dels tombstones the first Dels live matches for Key in scan
// order — page order along the chain, data before buffer within a page —
// the same "first N matches" semantics the Optimistic facade's delta
// applies to reads (see Optimistic.Delete). Tombs is the value-aware
// generalization: an ordered list applied entry by entry, each deleting
// the first not-yet-consumed live match it accepts in scan order (any
// match for an Any entry, the first equal-valued match for a value
// entry). A non-empty Tombs requires Dels == 0 — anonymous deletes
// travel inside the list as Any entries so their order relative to value
// deletes is preserved — and a comparable value type.
type MergeOp[K num.Key, V any] struct {
	Key   K
	Adds  []V
	Dels  int
	Tombs []Tomb[V]
}

// MergeCOW folds an ordered stack of delta layers into the tree
// copy-on-write, bottom layer first, one page-granular pass per layer.
// Each layer's ops must be sorted by strictly ascending Key, and its
// tombstones are interpreted against the scan order of the tree after
// every layer beneath it has been applied — surviving base matches first,
// then the lower layers' adds in insertion order — which is exactly the
// order each pass materializes, so a layered read before the fold (the
// Optimistic facade's tree ⊕ frozen[0..n] ⊕ active protocol) and a plain
// read after it observe identical content. This relativity rule is what
// makes the fold a sequential pass per layer instead of a composition
// problem (composing tombstone counts across layers would need per-key
// base-match counts, an extra O(ops) tree walk, while a later pass only
// re-touches pages its layer actually dirties); composing two adjacent
// layers into one op list without touching the tree is CompactOps' job.
// Empty layers are skipped; with every layer empty the receiver itself is
// returned.
//
// A pass returns a new tree in which only the pages some op's key falls
// into are rebuilt (merged with the pending writes and re-segmented under
// the same error bound) and only the chunks overlapping a dirty interval
// are re-cut, while every untouched page and every untouched chunk — its
// start and head arrays included — is shared, by reference, with the
// receiver. The receiver is not modified (only read) and both trees remain
// fully readable afterwards; shared structure must not be mutated through
// either tree, so the result is meant for publication-style use (see the
// Optimistic facade, whose flush this implements).
//
// Because segments partition the key space, a batch of d pending writes
// touches at most O(d) pages regardless of tree size, and publication
// work scales with those dirty pages alone: O(pages touched · page size +
// adds) to rebuild data, the start and head arrays of the re-cut chunks
// (carried pages bring theirs along by copy), and one copy of the chunk
// spine with its start array (pages / chunkTarget entries each). There is
// no index beside the chain to maintain.
func (t *Tree[K, V]) MergeCOW(layers ...[]MergeOp[K, V]) *Tree[K, V] {
	for _, ops := range layers {
		t = t.mergeLayer(ops)
	}
	return t
}

// mergeLayer is one MergeCOW pass: it folds a single sorted op list.
func (t *Tree[K, V]) mergeLayer(ops []MergeOp[K, V]) *Tree[K, V] {
	for i := range ops {
		if ops[i].Key != ops[i].Key {
			panic("fitingtree: MergeCOW with NaN key")
		}
		if i > 0 && ops[i].Key <= ops[i-1].Key {
			panic("fitingtree: MergeCOW ops not sorted by strictly ascending key")
		}
		if ops[i].Dels > 0 && len(ops[i].Tombs) > 0 {
			panic("fitingtree: MergeCOW op carries both a Dels count and a Tombs list")
		}
	}
	if len(ops) == 0 {
		// A no-op merge shares everything; the receiver already is that
		// tree, so copying the spine would be pure waste.
		return t
	}
	nt := &Tree[K, V]{opts: t.opts, counters: t.counters, fill0: t.fill0, reconeAt: t.reconeAt}

	addN := 0
	for _, op := range ops {
		addN += len(op.Adds)
	}
	deleted := 0

	if len(t.chunks) == 0 {
		// Bootstrap: no pages to merge with, the content is the adds alone
		// (tombstones cannot outnumber zero base matches).
		keys := make([]K, 0, addN)
		vals := make([]V, 0, addN)
		for _, op := range ops {
			for _, v := range op.Adds {
				keys = append(keys, op.Key)
				vals = append(vals, v)
			}
		}
		pages := t.buildPages(keys, vals, &nt.counters)
		nt.npages = stampIDs([][]*page[K, V]{pages})
		nt.fill0 = fillOf(addN, nt.npages) // a whole build
		var run pageRun[K, V]
		run.add(t.opts.segError(), pages...)
		nt.setChunks(cutChunks(run))
	} else {
		ivs := t.dirtyIntervals(ops)

		// Rebuild the dirty regions' content (reads only the receiver).
		rebuilt := make([][]*page[K, V], len(ivs))
		deleted = t.rebuildRegions(ivs, ops, rebuilt, &nt.counters)
		// Rebuilt pages carry no buffer and no deletes: the sums lose the dirty pages'.
		dirty, buffered, deletes := 0, 0, 0
		for _, iv := range ivs {
			t.eachRegionPage(iv, func(p *page[K, V]) {
				dirty, buffered, deletes = dirty+1, buffered+len(p.bufKeys), deletes+p.deletes
			})
		}
		nt.npages = t.npages - dirty + stampIDs(rebuilt)
		nt.buffered, nt.deletes = t.buffered-buffered, t.deletes-deletes
		nt.setChunks(t.spliceClusters(ivs, rebuilt))
	}

	nt.counters.Inserts += addN
	nt.counters.Deletes += deleted
	nt.size = t.size + addN - deleted
	return nt
}

// spliceClusters returns the receiver's chunk spine with the chunks
// overlapping dirty intervals replaced. Intervals sharing a chunk form one
// cluster (a chunk is re-cut at most once); within a cluster's chunk span,
// carried pages move into the fresh chunks by reference — their starts and
// heads by copy — and dirty ranges are substituted with their rebuilt
// pages. Adjacent under-full chunks are absorbed into the re-cut — pages
// still carried by reference, only the chunks rebuilt — so delete-eroded
// chunks re-merge with the next fold that touches their neighborhood
// instead of accumulating forever. Clusters splice right to left so the
// chunk indices of pending clusters stay valid.
func (t *Tree[K, V]) spliceClusters(ivs []cowInterval, rebuilt [][]*page[K, V]) []*chunk[K, V] {
	chunks := t.chunks
	limit := len(t.chunks) // chunks at/after this index belong to an already-spliced cluster
	hi := len(ivs)
	for hi > 0 {
		// The cluster is ivs[lo:hi]; members share chunks pairwise.
		lo := hi - 1
		for lo > 0 && ivs[lo].loCI <= ivs[lo-1].hiCI {
			lo--
		}
		cLo, cHi := ivs[lo].loCI, ivs[hi-1].hiCI
		floor := -1
		if lo > 0 {
			floor = ivs[lo-1].hiCI // the next cluster to the left ends here
		}
		for cLo-1 > floor && underfull(t.chunks[cLo-1]) {
			cLo--
		}
		for cHi+1 < limit && underfull(t.chunks[cHi+1]) {
			cHi++
		}
		n := 0
		for _, c := range t.chunks[cLo : cHi+1] {
			n += len(c.pages)
		}
		for j := lo; j < hi; j++ {
			n += len(rebuilt[j]) - t.regionLen(ivs[j])
		}
		run := makeRun[K, V](n)
		ci, pi := cLo, 0 // the next receiver-chain page not yet accounted for
		carryTo := func(toCI, toPI int) {
			for ; ci < toCI; ci, pi = ci+1, 0 {
				run.carry(t.chunks[ci], pi, len(t.chunks[ci].pages))
			}
			run.carry(t.chunks[ci], pi, toPI)
		}
		for j := lo; j < hi; j++ {
			carryTo(ivs[j].loCI, ivs[j].loPI)
			run.add(t.opts.segError(), rebuilt[j]...)
			ci, pi = ivs[j].hiCI, ivs[j].hiPI+1
		}
		carryTo(cHi, len(t.chunks[cHi].pages))
		chunks = splice(chunks, cLo, cHi-cLo+1, cutChunks(run))
		limit = cLo
		hi = lo
	}
	return chunks
}

// regionsPerWorker is how many dirty regions a fold wants per goroutine
// before fanning the rebuild out pays for starting one, and regionBatch
// how many a worker claims at a time.
const (
	regionsPerWorker = 32
	regionBatch      = 8
)

// regionScratch is one rebuild worker's merge buffer: every region the
// worker rebuilds is merged into it and then cut into pages that own
// their arrays, so a fold allocates (and clears) no run per region, and
// the buffer — stale value pointers included — is garbage as soon as
// rebuildRegions returns. adds locates the region's inserted keys in the
// run, one span per op, and added counts them.
type regionScratch[K num.Key, V any] struct {
	keys  []K
	vals  []V
	adds  []addSpan
	added int
}

// addSpan is the run positions [at, at+n) of one op's adds.
type addSpan struct{ at, n int }

// rebuildRegions fills rebuilt[i] with the pages that replace dirty
// interval ivs[i], counting the work in ctr, and returns how many elements
// tombstones removed. Regions are independent — each reads the receiver
// and writes its own slot — so a batch dirtying many of them is rebuilt by
// min(GOMAXPROCS, regions/regionsPerWorker) workers (the caller being
// one), each keeping its own counters, summed at the end, and its own
// merge scratch: page order, page contents and counts do not depend on
// the worker count. The pages come back without identities; the caller
// stamps them (stampIDs) once the workers are done. Below two workers'
// worth of regions, or on one processor, everything runs on the caller.
func (t *Tree[K, V]) rebuildRegions(ivs []cowInterval, ops []MergeOp[K, V], rebuilt [][]*page[K, V], ctr *Counters) int {
	var (
		next    atomic.Int64 // first interval nobody has claimed yet
		wg      sync.WaitGroup
		mu      sync.Mutex // guards ctr and deleted
		deleted int
	)
	work := func() {
		defer wg.Done()
		var c Counters
		var scratch regionScratch[K, V]
		dels := 0
		for lo := 0; lo < len(ivs); {
			hi := int(next.Add(regionBatch))
			for lo = hi - regionBatch; lo < min(hi, len(ivs)); lo++ {
				var d int
				rebuilt[lo], d = t.rebuildRegion(ivs[lo], ops[ivs[lo].opLo:ivs[lo].opHi], &scratch, &c)
				dels += d
			}
		}
		mu.Lock()
		ctr.add(c)
		deleted += dels
		mu.Unlock()
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(ivs)/regionsPerWorker))
	wg.Add(workers)
	for ; workers > 1; workers-- {
		go work()
	}
	work()
	wg.Wait()
	return deleted
}

// rebuildRegion merges one dirty interval's pages with its ops (in s) and
// builds the pages that replace them: the region's one page refit, or the
// run re-segmented into loose pages.
func (t *Tree[K, V]) rebuildRegion(iv cowInterval, ops []MergeOp[K, V], s *regionScratch[K, V], ctr *Counters) ([]*page[K, V], int) {
	deleted := t.mergeRegion(iv, ops, s)
	if len(s.keys) > 0 && iv.loCI == iv.hiCI && iv.loPI == iv.hiPI {
		if p := t.refit(t.chunks[iv.loCI].pages[iv.loPI], s, deleted); p != nil {
			ctr.add(Counters{Merges: 1, PagesMade: 1, Refits: 1})
			return []*page[K, V]{p}, deleted
		}
	}
	pages := t.buildPages(s.keys, s.vals, ctr)
	for _, p := range pages {
		p.loose = true
	}
	return pages, deleted
}

// refit returns the run in s, which replaces the one page only after
// deleted elements left it, as one page under only's line — same start,
// same slope — when that line still predicts every key of the run within
// the tree's bound; nil when it does not. What the paper guarantees is the
// bound, checked here key by key; the cone is only the way a slope is found
// when none is known. A few inserts rarely push a page out of its bound,
// while the greedy cone re-run on slightly denser data routinely splits a
// page the old slope still covers.
//
// The verdict is the full check's (segment.Fits over the run), reached
// without a pass over the run where only's bounds allow: each old element
// moved down by at most the adds and up by at most the deletes, so the
// shifted bounds bracket the old keys and only the inserted ones are
// checked, at their run positions. Bounds that are unknown, or out once
// shifted, cost one exact scan, which yields exact ones.
func (t *Tree[K, V]) refit(only *page[K, V], s *regionScratch[K, V], deleted int) *page[K, V] {
	segErr, start, slope := t.opts.segError(), only.start(), only.seg.Slope
	if start > s.keys[0] {
		return nil
	}
	lo, hi, ok := float64(int(only.fit.lo)-s.added), float64(int(only.fit.hi)+deleted), false
	if only.fit.ok && len(only.bufKeys) == 0 && only.deletes == 0 && lo >= float64(-segErr) && hi <= float64(segErr) {
		for _, a := range s.adds {
			l, h, in := segment.Residuals(s.keys[:a.at+a.n], a.at, start, slope, segErr)
			if !in {
				return nil // an inserted key is out: so is the full check
			}
			lo, hi = min(lo, l), max(hi, h)
		}
	} else if lo, hi, ok = segment.Residuals(s.keys, 0, start, slope, segErr); !ok {
		return nil
	}
	p := newPage(0, segment.Segment[K]{Start: start, Count: len(s.keys), Slope: slope}, ownCopy(s.keys), ownCopy(s.vals))
	p.fit, p.loose = boundsOf(lo, hi), only.loose
	return p
}

// buildPages turns a sorted run into fresh pages under the tree's
// segmentation bound, counting the work in ctr.
func (t *Tree[K, V]) buildPages(keys []K, vals []V, ctr *Counters) []*page[K, V] {
	if len(keys) == 0 {
		return nil
	}
	ctr.Merges++
	segs := segment.ShrinkingCone(keys, t.opts.segError())
	ctr.PagesMade += len(segs)
	return t.conedPages(keys, vals, segs)
}

// conedPages cuts a sorted run along its segments into pages with exact
// residual bounds. The run is only read, and every page gets arrays of its
// own, exactly its size (ownCopy): the run is a worker's scratch, and a page
// sharing an array with its siblings would keep all of it alive for as long
// as any one of them survives.
func (t *Tree[K, V]) conedPages(keys []K, vals []V, segs []segment.Segment[K]) []*page[K, V] {
	pages := make([]*page[K, V], len(segs))
	for i, s := range segs {
		pk := ownCopy(keys[s.StartPos:s.EndPos()])
		pages[i] = newPage(0, segment.Segment[K]{Start: s.Start, Count: s.Count, Slope: s.Slope},
			pk, ownCopy(vals[s.StartPos:s.EndPos()]))
		lo, hi, _ := segment.Residuals(pk, 0, s.Start, s.Slope, t.opts.segError())
		pages[i].fit = boundsOf(lo, hi)
	}
	return pages
}

// ownCopy returns a copy of s in an array of its own with no spare
// capacity. Clone's copying append does not clear what it is about to
// overwrite (for element types without pointers), which make would.
func ownCopy[T any](s []T) []T {
	return slices.Clip(slices.Clone(s))
}

// cowInterval is a maximal dirty run of pages — (loCI, loPI) through
// (hiCI, hiPI), inclusive, in (chunk index, page index) coordinates of
// the receiver's chain — together with the ops [opLo, opHi) whose keys
// fall into it.
type cowInterval struct {
	loCI, loPI int
	hiCI, hiPI int
	opLo, opHi int
}

// dirtyIntervals maps each op to the pages it touches and coalesces
// overlapping ranges. An op that only inserts touches the page Insert
// would buffer it in (runHead) through the end of the key's equal-start
// run, so its adds land after every base match of the key; an op with
// tombstones additionally reaches back to the first candidate page,
// because "first Dels matches in scan order" is a property of the whole
// run, duplicate spill included.
func (t *Tree[K, V]) dirtyIntervals(ops []MergeOp[K, V]) []cowInterval {
	var ivs []cowInterval
	for oi, op := range ops {
		k := op.Key
		// Adds sort after every base match of k, and matches can continue
		// through the key's equal-start run, so the region always extends
		// to the run's last page: the page locate lands on.
		hi := t.locate(k)
		lo := t.runHead(hi, k)
		if op.Dels > 0 || len(op.Tombs) > 0 {
			lo = t.backUp(hi, k)
		}
		iv := cowInterval{lo.ci, lo.pi, hi.ci, hi.pi, oi, oi + 1}
		// Coalesce with earlier intervals this one's pages overlap. Ops
		// ascend by key so interval ends ascend too, but a tombstone's
		// first-candidate walk can reach left of an earlier interval, so
		// merging may cascade.
		for n := len(ivs); n > 0; n = len(ivs) {
			prev := ivs[n-1]
			if iv.loCI > prev.hiCI || (iv.loCI == prev.hiCI && iv.loPI > prev.hiPI) {
				break
			}
			ivs = ivs[:n-1]
			if prev.loCI < iv.loCI || (prev.loCI == iv.loCI && prev.loPI < iv.loPI) {
				iv.loCI, iv.loPI = prev.loCI, prev.loPI
			}
			if prev.hiCI > iv.hiCI || (prev.hiCI == iv.hiCI && prev.hiPI > iv.hiPI) {
				iv.hiCI, iv.hiPI = prev.hiCI, prev.hiPI
			}
			iv.opLo = prev.opLo
		}
		ivs = append(ivs, iv)
	}
	return ivs
}

// mergeRegion merges the content of the dirty pages of iv with ops into
// one sorted run — left in s, whose arrays it reuses and grows as needed —
// applying tombstones as it goes, and reports how many elements the
// tombstones removed. Ties keep the read order the Optimistic facade
// promises: surviving base matches (scan order) first, then pending adds
// in insertion order.
func (t *Tree[K, V]) mergeRegion(iv cowInterval, ops []MergeOp[K, V], s *regionScratch[K, V]) int {
	keys, vals := s.keys[:0], s.vals[:0]
	s.adds, s.added = s.adds[:0], 0
	ts := newTombSets(ops) // tombstones left to apply, per op
	deleted := 0
	oi := 0
	// Adds sort after every base match of the same key, so an op's adds go
	// out only once the base run has moved past its key.
	flushAdds := func() {
		s.adds, s.added = append(s.adds, addSpan{len(keys), len(ops[oi].Adds)}), s.added+len(ops[oi].Adds)
		for _, v := range ops[oi].Adds {
			keys = append(keys, ops[oi].Key)
			vals = append(vals, v)
		}
		oi++
	}
	t.eachRegionPage(iv, func(p *page[K, V]) {
		if len(p.bufKeys) == 0 {
			// The common page: no insert buffer to interleave. Base keys
			// between two op keys are one copy; only the matches of an op's
			// own key are offered to its tombstones one by one.
			pk, pv := p.keys, p.vals
			for len(pk) > 0 && oi < len(ops) {
				k := ops[oi].Key
				n, _ := findKey(pk, k)
				keys, vals = append(keys, pk[:n]...), append(vals, pv[:n]...)
				for ; n < len(pk) && pk[n] == k; n++ {
					if ts[oi].Consume(pv[n]) {
						deleted++
						continue
					}
					keys, vals = append(keys, pk[n]), append(vals, pv[n])
				}
				if n < len(pk) {
					flushAdds() // else k's matches may run on into the next page
				}
				pk, pv = pk[n:], pv[n:]
			}
			keys, vals = append(keys, pk...), append(vals, pv...)
			return
		}
		i, j := 0, 0
		for i < len(p.keys) || j < len(p.bufKeys) {
			useData := j >= len(p.bufKeys) ||
				(i < len(p.keys) && p.keys[i] <= p.bufKeys[j])
			var bk K
			var bv V
			if useData {
				bk, bv = p.keys[i], p.vals[i]
				i++
			} else {
				bk, bv = p.bufKeys[j], p.bufVals[j]
				j++
			}
			for oi < len(ops) && ops[oi].Key < bk {
				flushAdds()
			}
			if oi < len(ops) && ops[oi].Key == bk && ts[oi].Consume(bv) {
				deleted++
				continue
			}
			keys = append(keys, bk)
			vals = append(vals, bv)
		}
	})
	for oi < len(ops) {
		flushAdds()
	}
	s.keys, s.vals = keys, vals
	return deleted
}

// regionLen returns the number of pages iv spans.
func (t *Tree[K, V]) regionLen(iv cowInterval) int {
	n := 0
	for ci := iv.loCI; ci <= iv.hiCI; ci++ {
		n += len(t.chunks[ci].pages)
	}
	n -= iv.loPI
	n -= len(t.chunks[iv.hiCI].pages) - iv.hiPI - 1
	return n
}

// eachRegionPage visits the dirty pages of iv in chain order.
func (t *Tree[K, V]) eachRegionPage(iv cowInterval, fn func(p *page[K, V])) {
	for ci := iv.loCI; ci <= iv.hiCI; ci++ {
		pages := t.chunks[ci].pages
		lo, hi := 0, len(pages)
		if ci == iv.loCI {
			lo = iv.loPI
		}
		if ci == iv.hiCI {
			hi = iv.hiPI + 1
		}
		for _, p := range pages[lo:hi] {
			fn(p)
		}
	}
}
