// Package core implements the FITing-Tree index (the paper's primary
// contribution).
//
// A FITing-Tree approximates the monotone key->position function of a
// sorted column with piece-wise linear segments whose maximal interpolation
// error is bounded by a tunable threshold E (Section 2). Each segment's
// data lives in a variable-sized table page; the segments' starting keys,
// slopes, and page locations are organized in a tree (Figure 2). A point
// lookup walks that tree to the owning page, interpolates the key's
// position, and searches only the 2E+1 window around the prediction
// (Section 4). Inserts go to a fixed-size sorted buffer attached to each
// page; a full buffer is merged with the page and re-segmented with the
// same one-pass algorithm, so the error guarantee survives updates
// (Section 5). To make the guarantee hold while elements sit in the
// buffer, the segmentation error is transparently reduced to
// E - buffer capacity.
//
// The chain is the router. Pages in global key order are grouped into
// immutable chunks of at most chunkMax pages; every chunk carries the sorted
// array of its pages' start keys and the tree carries the sorted array of
// its chunks' start keys, so routing a key is two searches over two small
// contiguous arrays — the height-2 tree Section 2.2 allows in place of a
// B+ tree ("could instead use any other tree-based index structure") — and
// lands on chain coordinates (chunk, page) directly. Beside its start array
// a chunk holds one by-value head per page: the model, the window
// half-width and the data slices, everything a hit reads, so a lookup never
// dereferences a page. Pages carry no links and chunks never mutate once
// another tree can reach them, so MergeCOW publishes a new tree that
// shares, by reference, every untouched page and every untouched chunk
// (with its start and head arrays) with its parent, and copies only the
// chunk spine, its start array, and the arrays of the chunks it re-cuts.
//
// Duplicate keys are fully supported (a requirement for non-clustered
// indexes): consecutive pages may share a starting key, and a key equal to
// a page's start may also sit in the tails of the pages before it; lookups
// walk the chain for those, and only for those.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// DefaultError is the error threshold used when Options.Error is zero.
const DefaultError = 100

// Options configures a FITing-Tree by the paper's two knobs: the error
// threshold and the insert buffer it is shared with. Neither the in-page
// search nor the inner structure has a knob: the search is one strided
// binary search of the error window (Section 4.1.2), the one the §6 cost
// model prices, and the inner structure is the page chain's own two-level
// start arrays.
type Options struct {
	// Error is the maximum distance E between an element's predicted and
	// true position, including elements resident in insert buffers. The
	// lookup window inside a page is 2E+1 elements. Defaults to
	// DefaultError; must be >= 1.
	Error int

	// BufferSize is the per-page insert buffer capacity. The segmentation
	// error is Error - BufferSize, so it must be strictly less than Error.
	// A negative value selects the paper's default of Error/2; zero means
	// no buffering (every insert merges immediately).
	BufferSize int
}

// withDefaults normalizes opts, returning an error for invalid settings.
func (o Options) withDefaults() (Options, error) {
	if o.Error == 0 {
		o.Error = DefaultError
	}
	if o.Error < 1 {
		return o, fmt.Errorf("fitingtree: Error = %d, must be >= 1", o.Error)
	}
	if o.BufferSize < 0 {
		o.BufferSize = o.Error / 2
	}
	if o.BufferSize >= o.Error {
		return o, fmt.Errorf("fitingtree: BufferSize %d must be < Error %d", o.BufferSize, o.Error)
	}
	return o, nil
}

// segError returns the error budget left for segmentation after reserving
// room for the insert buffer (Section 5).
func (o Options) segError() int { return o.Error - o.BufferSize }

// pageSeq issues process-unique page and chunk identities (see page.id and
// chunk.id).
var pageSeq atomic.Uint64

// page is one variable-sized table page: the data of one segment plus its
// insert buffer. Pages carry no chain links — their position is a property
// of the chunk holding them, not of the page — so a page is a value that
// can appear in several trees at once. A page reachable from more than one
// tree (published by MergeCOW) must never be mutated, so a lookup writes no
// shared memory. A page is the cold side of its pageHead: a lookup that
// hits reads the head alone. A page carries no error bound of its own:
// every page is cut under the tree's (Options.segError), and its window is
// that bound widened by deletes.
type page[K num.Key, V any] struct {
	id      uint64             // process-unique identity, for sharing diagnostics
	seg     segment.Segment[K] // prediction model over keys as of last (re)build
	keys    []K                // sorted segment data
	vals    []V                // parallel to keys
	pref    []uint64           // string keys only: parallel 8-byte ordering prefixes
	fixed8  bool               // string keys only: every key is exactly 8 bytes
	loose   bool               // cut by a fold's re-segmentation, not a whole pass (see Recone)
	fit     fitBounds          // bounds on the data's residuals, for the fold's refit
	bufKeys []K                // sorted insert buffer
	bufVals []V
	deletes int // window widening since last rebuild: in-place deletes, excess bound at open
}

// newPage allocates a page over the given segment data. id is its
// identity, a fresh pageSeq value — or 0 from a builder that stamps a whole
// batch of pages afterwards (stampIDs), before any of them can be reached
// from a tree.
func newPage[K num.Key, V any](id uint64, seg segment.Segment[K], keys []K, vals []V) *page[K, V] {
	return &page[K, V]{id: id, seg: seg, keys: keys, vals: vals,
		pref: stringPrefixes(keys), fixed8: allLen8(keys)}
}

// fitBounds brackets a page's residuals in whole positions: exact (rounded
// outward) after a scan, conservative after a bound-only refit (Tree.refit),
// unknown after a bulk load or a load. They fit in the padding after fixed8.
type fitBounds struct {
	lo, hi int16
	ok     bool
}

// boundsOf rounds a scanned residual range outward; unknown past int16.
func boundsOf(lo, hi float64) fitBounds {
	l, h := math.Floor(lo), math.Ceil(hi)
	return fitBounds{int16(l), int16(h), l >= math.MinInt16 && h <= math.MaxInt16}
}

// stampIDs gives every page of groups a fresh identity, in order, out of
// one reserved block of pageSeq — one atomic operation for a whole fold
// where a per-page increment had the rebuild workers contend for the
// counter's cache line — and returns how many pages it stamped.
func stampIDs[K num.Key, V any](groups [][]*page[K, V]) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	id := pageSeq.Add(uint64(n)) - uint64(n)
	for _, g := range groups {
		for _, p := range g {
			id++
			p.id = id
		}
	}
	return n
}

// stringPrefixes builds the prefix sidecar of a string-keyed page: the
// num.StringPrefix of every key, in key order. String data lives behind a
// header, so probing it costs two dependent loads to scattered memory;
// the sidecar gives the window search one contiguous integer array to
// probe — the same access pattern a numeric page enjoys — with the full
// byte-wise comparison paid only on a prefix tie. Non-string keys get nil.
func stringPrefixes[K num.Key](keys []K) []uint64 {
	ks, ok := any(keys).([]string)
	if !ok || len(ks) == 0 {
		return nil
	}
	pref := make([]uint64, len(ks))
	for i, s := range ks {
		pref[i] = num.StringPrefix(s)
	}
	return pref
}

// allLen8 reports whether keys are strings of exactly 8 bytes each — the
// shape every fixed-width keycodec encoding (Uint64, Int64, Float64,
// Time) produces. For such keys the 8-byte prefix IS the key: prefix
// order coincides with byte-wise order and prefix equality with string
// equality, so searches can run entirely on the integer sidecar without
// ever dereferencing string data. False for non-string or empty keys.
func allLen8[K num.Key](keys []K) bool {
	ks, ok := any(keys).([]string)
	if !ok || len(ks) == 0 {
		return false
	}
	for _, s := range ks {
		if len(s) != 8 {
			return false
		}
	}
	return true
}

// start returns the page's first key as of the last rebuild (its routing
// key in the chain's start arrays).
func (p *page[K, V]) start() K { return p.seg.Start }

// pageHead flags.
const (
	headBuffer = 1 << iota // the page has buffered inserts
	headPrefix             // string keys: the page carries a prefix sidecar
)

// pageHead is the hot side of a page, held by value in its chunk: what a
// lookup that hits reads and nothing else — the model with its origin
// already projected, the window half-width, the data slices, and one word
// saying whether anything behind the *page (insert buffer, prefix sidecar)
// needs touching at all. It is derived from the page (headOf) whenever the
// page is built or edited in place, and CheckInvariants holds every head to
// that derivation.
type pageHead[K num.Key, V any] struct {
	x0    float64 // num.Approx of the page's start key
	slope float64
	keys  []K
	vals  []V
	w     int // window half-width: the tree's bound + deletes
	flags uint
}

// headOf derives p's head in a tree whose segmentation bound is segErr.
func headOf[K num.Key, V any](p *page[K, V], segErr int) pageHead[K, V] {
	h := pageHead[K, V]{x0: num.Approx(p.seg.Start), slope: p.seg.Slope,
		keys: p.keys, vals: p.vals, w: segErr + p.deletes}
	if len(p.bufKeys) > 0 {
		h.flags |= headBuffer
	}
	if p.pref != nil {
		h.flags |= headPrefix
	}
	return h
}

// chunkTarget is the page count freshly cut chunks aim for, and chunkMax
// the in-place growth bound: a splice that pushes a chunk past chunkMax
// re-cuts it into chunkTarget-sized chunks. The pair trades the top-level
// spine copy a publication pays (total pages / chunkTarget entries) against
// the arrays a chunk replacement rewrites (at most chunkMax entries each).
const (
	chunkTarget = 64
	chunkMax    = 2 * chunkTarget
)

// underfullDiv sets the under-full threshold: a chunk with fewer than
// chunkTarget/underfullDiv pages is absorbed into the next fold that
// rebuilds an adjacent region, bounding the degenerate chunks a
// delete-heavy run can accumulate.
const underfullDiv = 4

// underfull reports whether a chunk has decayed below the re-merge
// threshold.
func underfull[K num.Key, V any](c *chunk[K, V]) bool {
	return len(c.pages) < chunkTarget/underfullDiv
}

// pageRun is a stretch of consecutive pages with their start keys and heads
// in parallel arrays: what a chunk is made of, and what the splices
// assemble — carried pages bring their start and head along by copy,
// rebuilt ones have theirs derived — before cutting it into chunks.
type pageRun[K num.Key, V any] struct {
	pages  []*page[K, V]
	starts []K
	heads  []pageHead[K, V]
}

// makeRun returns an empty run with room for n pages.
func makeRun[K num.Key, V any](n int) pageRun[K, V] {
	return pageRun[K, V]{make([]*page[K, V], 0, n), make([]K, 0, n), make([]pageHead[K, V], 0, n)}
}

// add appends pages, deriving their starts and heads under the tree's
// segmentation bound segErr.
func (r *pageRun[K, V]) add(segErr int, pages ...*page[K, V]) {
	for _, p := range pages {
		r.pages = append(r.pages, p)
		r.starts = append(r.starts, p.start())
		r.heads = append(r.heads, headOf(p, segErr))
	}
}

// carry appends pages [lo, hi) of c, arrays and all.
func (r *pageRun[K, V]) carry(c *chunk[K, V], lo, hi int) {
	r.pages = append(r.pages, c.pages[lo:hi]...)
	r.starts = append(r.starts, c.starts[lo:hi]...)
	r.heads = append(r.heads, c.heads[lo:hi]...)
}

// slice returns the sub-run [lo, hi), capped so an append cannot reach the
// siblings cut from the same arrays.
func (r pageRun[K, V]) slice(lo, hi int) pageRun[K, V] {
	return pageRun[K, V]{r.pages[lo:hi:hi], r.starts[lo:hi:hi], r.heads[lo:hi:hi]}
}

// chunk is one span of consecutive pages of the chain with its slice of
// the index over them: starts, the sorted start keys a lookup searches, and
// heads, the by-value hot halves of the pages, both parallel to pages. Once
// a chunk is reachable from more than one tree (published by MergeCOW) it
// must never be mutated — flushes replace whole chunks instead. A tree that
// owns its chunks exclusively (the plain single-writer Tree) may splice
// pages within a chunk and re-derive heads in place.
type chunk[K num.Key, V any] struct {
	id uint64 // process-unique identity, for sharing diagnostics
	pageRun[K, V]
}

// newChunk allocates a chunk with a fresh identity over run.
func newChunk[K num.Key, V any](run pageRun[K, V]) *chunk[K, V] {
	return &chunk[K, V]{id: pageSeq.Add(1), pageRun: run}
}

// start returns the chunk's first routing key. Chunks are never empty.
func (c *chunk[K, V]) start() K { return c.starts[0] }

// cutChunks groups run into fresh chunks of chunkTarget pages, the last
// one taking the remainder.
func cutChunks[K num.Key, V any](run pageRun[K, V]) []*chunk[K, V] {
	n := len(run.pages)
	if n == 0 {
		return nil
	}
	chunks := make([]*chunk[K, V], 0, (n+chunkTarget-1)/chunkTarget)
	for at := 0; at < n; at += chunkTarget {
		chunks = append(chunks, newChunk(run.slice(at, min(at+chunkTarget, n))))
	}
	return chunks
}

// cursor identifies a page during navigation: its chunk (by pointer), the
// page's index within it, and the chunk's index in the tree's chunk slice.
// locate hands one out for free — the chain's own arrays are what it
// searches.
type cursor[K num.Key, V any] struct {
	c  *chunk[K, V]
	pi int // page index within c
	ci int // index of c in Tree.chunks
}

// start returns the start key of the page the cursor addresses.
func (cu cursor[K, V]) start() K { return cu.c.starts[cu.pi] }

// page returns the page the cursor addresses.
func (cu cursor[K, V]) page() *page[K, V] { return cu.c.pages[cu.pi] }

// Counters records maintenance activity, exposed for evaluation
// (e.g. Figure 7's split-rate discussion).
type Counters struct {
	Inserts   int // InsertKey calls
	Deletes   int // successful Delete calls
	Merges    int // buffer merge + re-segmentation events
	PagesMade int // pages created by merges (not counting bulk load)
	// Refits counts the PagesMade that kept their predecessor's line: a
	// copy-on-write merge rebuilt one page and its start and slope still
	// predicted every merged key within the page's error bound, so the
	// region was not re-segmented (see Tree.refit).
	Refits int
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.Inserts += o.Inserts
	c.Deletes += o.Deletes
	c.Merges += o.Merges
	c.PagesMade += o.PagesMade
	c.Refits += o.Refits
}

// Tree is a clustered FITing-Tree index from K to V.
//
// Build one with BulkLoad. The zero value is not usable. Tree is not safe
// for concurrent use; wrap it or serialize access externally.
type Tree[K num.Key, V any] struct {
	opts     Options
	chunks   []*chunk[K, V] // chunked page chain in ascending key order
	starts   []K            // the chunks' start keys, parallel to chunks: the index's top level
	npages   int            // pages in the chain, maintained by every splice
	size     int            // total elements (pages + buffers)
	buffered int            // Σ len(bufKeys) over the chain's pages, carried like npages
	deletes  int            // Σ pages' deletes, carried like npages
	fill0    float64        // elements per page at the last whole build, 0 if unknown (see Recone)
	reconeAt int            // the chunk Recone's next sweep starts at

	counters Counters
}

// setChunks installs chunks as the tree's chain and derives the top-level
// start array from it.
func (t *Tree[K, V]) setChunks(chunks []*chunk[K, V]) {
	t.chunks = chunks
	t.starts = make([]K, len(chunks))
	for i, c := range chunks {
		t.starts[i] = c.start()
	}
}

// BulkLoad builds a FITing-Tree over sorted keys (duplicates allowed) and
// their parallel values using the one-pass ShrinkingCone segmentation
// (Section 3). The input slices are copied into per-segment pages. The
// segmentation and the page copies are spread over the processors the way
// segment.ShrinkingCone spreads its pass. The layout does not depend on
// GOMAXPROCS, and page identities run consecutively in chain order.
func BulkLoad[K num.Key, V any](keys []K, vals []V, opts Options) (*Tree[K, V], error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("fitingtree: %d keys but %d values", len(keys), len(vals))
	}
	// Every part checks all of its range and keeps its first bad key, so the
	// first part holding one holds the input's first.
	parts := segment.Parts(len(keys))
	bad := make([]error, parts)
	segment.ForParts(parts, len(keys), func(p, lo, hi int) {
		for i := lo; i < hi; i++ {
			// NaN float keys compare false against everything, so they would
			// slip through the sortedness check and corrupt routing.
			if keys[i] != keys[i] {
				bad[p] = fmt.Errorf("fitingtree: NaN key at index %d", i)
				return
			}
			if i > 0 && keys[i] < keys[i-1] {
				bad[p] = fmt.Errorf("fitingtree: keys not sorted at index %d", i)
				return
			}
		}
	})
	for _, err := range bad {
		if err != nil {
			return nil, err
		}
	}
	segs := segment.ShrinkingCone(keys, o.segError())
	pages := make([]*page[K, V], len(segs))
	segment.ForParts(parts, len(keys), func(_, lo, hi int) {
		// This part copies the segments that start in [lo, hi).
		j := sort.Search(len(segs), func(j int) bool { return segs[j].StartPos >= lo })
		for ; j < len(segs) && segs[j].StartPos < hi; j++ {
			s := segs[j]
			pages[j] = newPage(0,
				segment.Segment[K]{Start: s.Start, StartPos: 0, Count: s.Count, Slope: s.Slope},
				ownCopy(keys[s.StartPos:s.EndPos()]),
				ownCopy(vals[s.StartPos:s.EndPos()]),
			)
		}
	})
	stampIDs([][]*page[K, V]{pages})
	run := makeRun[K, V](len(pages))
	run.add(o.segError(), pages...)
	t := &Tree[K, V]{opts: o, size: len(keys), npages: len(pages), fill0: fillOf(len(keys), len(pages))}
	t.setChunks(cutChunks(run))
	return t, nil
}

// Options returns the tree's normalized options.
func (t *Tree[K, V]) Options() Options { return t.opts }

// Len returns the number of stored elements, including buffered inserts.
func (t *Tree[K, V]) Len() int { return t.size }

// Counters returns maintenance counters accumulated since the build, the
// same as Stats().Counters.
func (t *Tree[K, V]) Counters() Counters { return t.counters }

// NumPages returns the number of pages (segments) in the chain in O(1):
// the count is carried from tree to tree by every operation that splices
// pages, so a caller may read it per write (the Optimistic facade sizes
// its fold batches by it).
func (t *Tree[K, V]) NumPages() int { return t.npages }

// PageIDs returns the identity of every page in chain order. Two trees
// related by MergeCOW share a page iff the same id appears in both; tests
// and diagnostics use this to verify structural sharing without reaching
// into the chain.
func (t *Tree[K, V]) PageIDs() []uint64 {
	var ids []uint64
	for _, c := range t.chunks {
		for _, p := range c.pages {
			ids = append(ids, p.id)
		}
	}
	return ids
}

// ChunkIDs returns the identity of every chain chunk in order. Like
// PageIDs it is a sharing diagnostic: MergeCOW re-cuts only the chunks a
// batch dirties, so ids outside the dirty intervals must survive into the
// published tree.
func (t *Tree[K, V]) ChunkIDs() []uint64 {
	ids := make([]uint64, len(t.chunks))
	for i, c := range t.chunks {
		ids[i] = c.id
	}
	return ids
}

// next returns the cursor one page forward in chain order.
func (t *Tree[K, V]) next(cu cursor[K, V]) (cursor[K, V], bool) {
	if cu.pi+1 < len(cu.c.pages) {
		cu.pi++
		return cu, true
	}
	if cu.ci+1 >= len(t.chunks) {
		return cu, false
	}
	c := t.chunks[cu.ci+1]
	return cursor[K, V]{c: c, pi: 0, ci: cu.ci + 1}, true
}

// prev returns the cursor one page backward in chain order.
func (t *Tree[K, V]) prev(cu cursor[K, V]) (cursor[K, V], bool) {
	if cu.pi > 0 {
		cu.pi--
		return cu, true
	}
	if cu.ci == 0 {
		return cu, false
	}
	c := t.chunks[cu.ci-1]
	return cursor[K, V]{c: c, pi: len(c.pages) - 1, ci: cu.ci - 1}, true
}

// last returns the cursor of the chain's last page. The tree must not be
// empty.
func (t *Tree[K, V]) last() cursor[K, V] {
	ci := len(t.chunks) - 1
	c := t.chunks[ci]
	return cursor[K, V]{c: c, pi: len(c.pages) - 1, ci: ci}
}

// locate returns the cursor of the page whose range contains k: the last
// page of the chain whose start key is <= k, or the chain's first page
// when k precedes every start. It is the whole inner-tree descent: one
// upper bound over the chunks' starts, one over the chunk's page starts,
// both on small contiguous arrays. The tree must not be empty.
func (t *Tree[K, V]) locate(k K) cursor[K, V] {
	ci := max(upperBound(t.starts, k)-1, 0)
	c := t.chunks[ci]
	return cursor[K, V]{c: c, pi: max(upperBound(c.starts, k)-1, 0), ci: ci}
}

// searchPage looks for k inside the single page at cu (segment data window
// plus buffer). It returns the value of the first match found.
func (t *Tree[K, V]) searchPage(cu cursor[K, V], k K) (V, bool) {
	h := &cu.c.heads[cu.pi]
	if i, hit := t.seek(cu, k); hit {
		return h.vals[i], true
	}
	if h.flags&headBuffer != 0 {
		p := cu.page()
		if i, ok := findKey(p.bufKeys, k); ok {
			return p.bufVals[i], true
		}
	}
	var zero V
	return zero, false
}

// firstCandidate returns the cursor of the earliest page that could
// contain k. Usually that is the located page, but duplicate runs can
// spill keys equal to k into the tails of preceding pages, and deletions
// can leave a key only in an earlier page of the run.
func (t *Tree[K, V]) firstCandidate(k K) (cursor[K, V], bool) {
	if len(t.chunks) == 0 {
		return cursor[K, V]{}, false
	}
	return t.backUp(t.locate(k), k), true
}

// onBackUp, when a test sets it, is called by every backUp that consults a
// preceding page.
var onBackUp func()

// backUp rewinds cu — the last page whose start is <= k — over the
// preceding pages whose content reaches k (duplicate spill). A page's
// content never passes the next page's start, so only a page that starts
// exactly at k can have matches before it: every other key stays put
// without touching a page.
func (t *Tree[K, V]) backUp(cu cursor[K, V], k K) cursor[K, V] {
	for cu.start() == k {
		if onBackUp != nil {
			onBackUp()
		}
		p, ok := t.prev(cu)
		if !ok || p.page().lastKey() < k {
			break
		}
		cu = p
	}
	return cu
}

// Lookup returns a value stored under k. When k has duplicates, an
// arbitrary match is returned; use Each for all of them.
func (t *Tree[K, V]) Lookup(k K) (V, bool) {
	if len(t.chunks) == 0 {
		var zero V
		return zero, false
	}
	return t.lookupAt(t.locate(k), k)
}

// lookupAt is Lookup from cu, the page locate returned for k.
func (t *Tree[K, V]) lookupAt(cu cursor[K, V], k K) (V, bool) {
	v, found := t.searchPage(cu, k)
	if found || cu.start() != k {
		// A hit, or an exact miss: the pages before cu end at or below its
		// start and the pages after it start above k, so a key that is not
		// cu's start and not in cu is nowhere.
		return v, found
	}
	// k is the page's start and not in it: matches may sit in preceding
	// pages (duplicate spill, an equal-start run eroded by deletions).
	return t.searchRun(t.backUp(cu, k), k)
}

// Contains reports whether k is present.
func (t *Tree[K, V]) Contains(k K) bool {
	_, ok := t.Lookup(k)
	return ok
}

// Each calls fn for every element with key exactly k, in page order, until
// fn returns false. Values in page data are visited before buffered values
// of the same page.
func (t *Tree[K, V]) Each(k K, fn func(v V) bool) {
	cu, ok := t.firstCandidate(k)
	for ok && t.eachMatch(cu, k, fn) {
		if cu, ok = t.next(cu); ok && cu.start() > k {
			return
		}
	}
}

// eachMatch visits every element equal to k in the page at cu; it reports
// false if fn requested a stop.
func (t *Tree[K, V]) eachMatch(cu cursor[K, V], k K, fn func(v V) bool) bool {
	h := &cu.c.heads[cu.pi]
	for i, _ := t.seek(cu, k); i < len(h.keys) && h.keys[i] == k; i++ {
		if !fn(h.vals[i]) {
			return false
		}
	}
	if h.flags&headBuffer != 0 {
		p := cu.page()
		for i, _ := findKey(p.bufKeys, k); i < len(p.bufKeys) && p.bufKeys[i] == k; i++ {
			if !fn(p.bufVals[i]) {
				return false
			}
		}
	}
	return true
}

// seek returns the position of k's lower bound in the data of the page at
// cu — the first element >= k, len(keys) if there is none — and whether
// that element is k (known without touching string data when the page's
// prefix sidecar is a lossless image of its keys). It is the one in-page
// search — point lookups test the element it lands on, scans start from
// it — and it reads only the 2w+1 window around the model's prediction:
// every element sits within w = the tree's bound + deletes of its own
// prediction and the model is monotone, so the lower bound of any key,
// present or not, lies within w of that key's prediction rounded to
// nearest (rounding, not truncating, leaves half a position of slack on
// both sides for a slope on the cone's edge); pageHead.window computes it.
func (t *Tree[K, V]) seek(cu cursor[K, V], k K) (int, bool) {
	h := &cu.c.heads[cu.pi]
	n := len(h.keys)
	lo, hi, at := h.window(num.Approx(k))
	if h.flags&headPrefix != 0 {
		return cu.page().seekPrefix(any(h.keys).([]string), lo, hi, at, any(k).(string))
	}
	i := windowSeek(h.keys, lo, hi, at, k)
	return i, i < n && h.keys[i] == k
}

// windowSeek returns k's lower bound within keys[lo:hi); at, in [lo, hi],
// is the model's prediction. It strides from at toward k a sixteenth of
// the window at a time (at least two slots) — the realised error is a
// fraction of the bound, and consecutive strides are consecutive cache
// lines — until k is bracketed, then bisects the stride that brackets it.
func windowSeek[K num.Key](keys []K, lo, hi, at int, k K) int {
	step := max(2, (hi-lo)>>4)
	if at < hi && keys[at] < k {
		for {
			lo = at + 1
			if at = min(at+step, hi); at == hi || keys[at] >= k {
				return lowerBound(keys, lo, at, k)
			}
		}
	}
	for at > lo {
		hi = at
		if at = max(at-step, lo); keys[at] < k {
			return lowerBound(keys, at+1, hi, k)
		}
	}
	return at
}

// seekPrefix is seek's window search for string keys. The probes read the
// page's prefix sidecar — one contiguous integer array, the access pattern
// a numeric page enjoys — and the prefix is weakly monotone, so the search
// for k's prefix brackets k; only the run of keys that tie with it on the
// prefix is searched on the strings themselves. For fixed-width codec keys
// the sidecar is a lossless image of the key column and the search never
// touches string data at all, which is what keeps string-keyed lookups
// within small-constant reach of native numeric ones.
func (p *page[K, V]) seekPrefix(keys []string, lo, hi, at int, k string) (int, bool) {
	kp := num.StringPrefix(k)
	i := windowSeek(p.pref, lo, hi, at, kp)
	if p.fixed8 && len(k) == 8 {
		return i, i < len(keys) && p.pref[i] == kp
	}
	i = lowerBound(keys, i, i+upperBound(p.pref[i:hi], kp), k)
	return i, i < len(keys) && keys[i] == k
}

// lowerBound returns the first index in [lo, hi) whose key is >= k, hi if
// there is none.
func lowerBound[K num.Key](keys []K, lo, hi int, k K) int {
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the index of the first key > k in a sorted slice.
// String keys compare 8-byte prefixes first (weakly monotone, so an unequal
// pair decides the order with one integer compare) and pay the byte-wise
// comparison only on a prefix tie.
func upperBound[K num.Key](keys []K, k K) int {
	lo, hi := 0, len(keys)
	if ks, isStr := any(keys).([]string); isStr {
		sk := any(k).(string)
		kp := num.StringPrefix(sk)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if mp := num.StringPrefix(ks[mid]); mp < kp || (mp == kp && ks[mid] <= sk) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findKey searches a sorted slice for the first occurrence of k and
// returns its lower bound with whether k is there.
func findKey[K num.Key](keys []K, k K) (int, bool) {
	i := lowerBound(keys, 0, len(keys), k)
	return i, i < len(keys) && keys[i] == k
}
