// Package core implements the FITing-Tree index (the paper's primary
// contribution).
//
// A FITing-Tree approximates the monotone key->position function of a
// sorted column with piece-wise linear segments whose maximal interpolation
// error is bounded by a tunable threshold E (Section 2). Each segment's
// data lives in a variable-sized table page; the segments' starting keys,
// slopes, and page locations are organized in a B+ tree (Figure 2). A point
// lookup walks the inner tree to the owning page, interpolates the key's
// position, and binary-searches only the 2E+1 window around the prediction
// (Section 4). Inserts go to a fixed-size sorted buffer attached to each
// page; a full buffer is merged with the page and re-segmented with the
// same one-pass algorithm, so the error guarantee survives updates
// (Section 5). To make the guarantee hold while elements sit in the
// buffer, the segmentation error is transparently reduced to
// E - buffer capacity.
//
// The leaf level is a chunked page chain: pages in global key order are
// grouped into immutable chunks of at most chunkMax pages, and the router
// maps a segment's start key to its page's stable address (chunk pointer,
// index within the chunk). Pages carry no links, chunks never mutate their
// page spine once another tree can reach them, and the router itself is a
// persistently cloneable structure — so MergeCOW publishes a new tree that
// shares, by reference, every untouched page, every untouched chunk, and
// (with the B+ tree router) every untouched router node with its parent.
// Because a page's address names its chunk rather than a global position,
// a splice that changes the page count renumbers nothing outside the
// chunks it rebuilds: there is no router suffix to shift. Navigation that
// previously walked a flat slice is cursor arithmetic over (chunk, page)
// pairs.
//
// Duplicate keys are fully supported (a requirement for non-clustered
// indexes): consecutive pages may share a starting key, in which case only
// the first of the run is registered in the inner tree and lookups walk the
// page chain for the remainder.
package core

import (
	"fmt"
	"sync/atomic"

	"fitingtree/internal/btree"
	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// DefaultError is the error threshold used when Options.Error is zero.
const DefaultError = 100

// SearchStrategy selects how a lookup locates a key inside its segment's
// error window (Section 4.1.2: "it is possible to utilize any well-known
// search algorithm, including linear search, binary search, or exponential
// search").
type SearchStrategy int

const (
	// SearchBinary binary-searches the 2E+1 window (the paper's default).
	SearchBinary SearchStrategy = iota
	// SearchLinear scans outward from the predicted position; the paper
	// notes it can win for very small error thresholds.
	SearchLinear
	// SearchExponential gallops from the predicted position, doubling the
	// step until the key is bracketed, then binary-searches the bracket.
	SearchExponential
)

// Options configures a FITing-Tree.
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

	// Fanout is the order (max keys per node) of the inner B+ tree.
	// Defaults to btree.DefaultOrder.
	Fanout int

	// FillFactor is the inner tree's bulk-load fill in (0, 1]. Defaults
	// to 1.
	FillFactor float64

	// Search selects the in-segment search algorithm; defaults to
	// SearchBinary.
	Search SearchStrategy

	// Router selects the structure organizing segment routing keys;
	// defaults to RouterBTree. RouterImplicit is the read-optimized
	// variant the paper sketches in Section 2.2.
	Router RouterKind
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
	if o.Fanout == 0 {
		o.Fanout = btree.DefaultOrder
	}
	if o.Fanout < 3 {
		return o, fmt.Errorf("fitingtree: Fanout = %d, must be >= 3", o.Fanout)
	}
	if o.FillFactor == 0 {
		o.FillFactor = 1
	}
	if o.FillFactor < 0 || o.FillFactor > 1 {
		return o, fmt.Errorf("fitingtree: FillFactor = %f, must be in (0, 1]", o.FillFactor)
	}
	if o.Search < SearchBinary || o.Search > SearchExponential {
		return o, fmt.Errorf("fitingtree: unknown search strategy %d", o.Search)
	}
	if o.Router < RouterBTree || o.Router > RouterImplicit {
		return o, fmt.Errorf("fitingtree: unknown router kind %d", o.Router)
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
// tree (published by MergeCOW) must never be mutated — with one carve-out:
// reads and writes are load counters touched only through sync/atomic, the
// self-tuning feedback signal (see tuner.go), and carry no structural
// meaning.
type page[K num.Key, V any] struct {
	// reads and writes lead the struct so the 64-bit atomic accesses stay
	// aligned on 32-bit platforms. reads approximates lookups served by
	// this page (sampled: 1 in readSamplePages pages counts, scaled back
	// up); writes approximates merge ops folded into the page's region,
	// carried forward with decay across rebuilds (see carryLoad).
	reads  uint64
	writes uint64

	id      uint64             // process-unique identity, for sharing diagnostics
	seg     segment.Segment[K] // prediction model over keys as of last (re)build
	werr    int                // segmentation error bound this page was built under (>= 1)
	keys    []K                // sorted segment data
	vals    []V                // parallel to keys
	pref    []uint64           // string keys only: parallel 8-byte ordering prefixes
	fixed8  bool               // string keys only: every key is exactly 8 bytes
	bufKeys []K                // sorted insert buffer
	bufVals []V
	deletes int // elements removed from keys since last rebuild
}

// newPage allocates a page over the given segment data, built under
// segmentation error bound werr. id is its identity, a fresh pageSeq value
// — or 0 from a builder that stamps a whole batch of pages afterwards
// (stampIDs), before any of them can be reached from a tree.
func newPage[K num.Key, V any](id uint64, seg segment.Segment[K], keys []K, vals []V, werr int) *page[K, V] {
	return &page[K, V]{id: id, seg: seg, werr: werr, keys: keys, vals: vals,
		pref: stringPrefixes(keys), fixed8: allLen8(keys)}
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
// key in the inner tree).
func (p *page[K, V]) start() K { return p.seg.Start }

// chunkTarget is the page count freshly cut chunks aim for, and chunkMax
// the in-place growth bound: a splice that pushes a chunk past chunkMax
// re-cuts it into chunkTarget-sized chunks. The pair trades the top-level
// chunk-slice copy a publication pays (total pages / chunkTarget pointer
// moves) against the routing entries a chunk replacement refreshes (at
// most chunkMax inserts).
const (
	chunkTarget = 64
	chunkMax    = 2 * chunkTarget
)

// chunk is one span of consecutive pages of the chain. The router
// addresses a page as (chunk pointer, index within the chunk), so a
// chunk's page spine is stable storage: once a chunk is reachable from
// more than one tree (published by MergeCOW) it must never be mutated —
// flushes replace whole chunks instead. A tree that owns its chunks
// exclusively (the plain single-writer Tree) may splice pages within a
// chunk in place, refreshing only that chunk's routing entries.
type chunk[K num.Key, V any] struct {
	id    uint64 // process-unique identity, for sharing diagnostics
	pages []*page[K, V]
}

// newChunk allocates a chunk with a fresh identity over pages.
func newChunk[K num.Key, V any](pages []*page[K, V]) *chunk[K, V] {
	return &chunk[K, V]{id: pageSeq.Add(1), pages: pages}
}

// start returns the chunk's first routing key. Chunks are never empty.
func (c *chunk[K, V]) start() K { return c.pages[0].start() }

// cutChunks groups pages into fresh chunks of chunkTarget pages each.
func cutChunks[K num.Key, V any](pages []*page[K, V]) []*chunk[K, V] {
	return cutChunksPlan(pages, nil)
}

// cutChunksPlan is cutChunks with a per-region chunk size: each chunk's
// page-count target is the tuner's target for the region holding the
// chunk's first page (chunkTarget when plan is nil or the region has no
// override). Smaller targets in write-hot regions shrink the width of
// future re-cuts; larger ones in cold regions shrink the top-level spine
// copy a publication pays.
func cutChunksPlan[K num.Key, V any](pages []*page[K, V], plan *regionPlan[K]) []*chunk[K, V] {
	if len(pages) == 0 {
		return nil
	}
	chunks := make([]*chunk[K, V], 0, (len(pages)+chunkTarget-1)/chunkTarget)
	for at := 0; at < len(pages); {
		target := chunkTarget
		if plan != nil {
			target = plan.chunkTargetFor(pages[at].start())
		}
		end := num.MinInt(at+target, len(pages))
		chunks = append(chunks, newChunk(pages[at:end:end]))
		at = end
	}
	return chunks
}

// cursor identifies a page during navigation: its chunk (by pointer), the
// page's index within it, and the chunk's index in the tree's chunk
// slice. The router itself stores no cursors — it routes straight to
// *page, an address that stays valid across every splice that carries the
// page — so cursors are derived on demand (see pageCursor) and only by
// the operations that actually walk the chain.
type cursor[K num.Key, V any] struct {
	c  *chunk[K, V]
	pi int // page index within c
	ci int // index of c in Tree.chunks
}

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
	// region was not re-segmented (see buildPagesErr).
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
	opts   Options
	idx    router[K, V]
	chunks []*chunk[K, V] // chunked page chain in ascending key order
	npages int            // pages in the chain, maintained by every splice
	size   int            // total elements (pages + buffers)

	// Hot-path state precomputed at construction so lookups neither
	// recompute option-derived values nor dispatch through the router
	// interface: rbt/rim hold the concrete router (exactly one is non-nil)
	// for devirtualized floor searches.
	segErr int            // opts.segError(), the in-page window half-width
	strat  SearchStrategy // opts.Search
	rbt    *btree.Tree[K, *page[K, V]]
	rim    *implicitRouter[K, V]

	counters Counters

	// tune is the self-tuning state shared by every tree in a MergeCOW
	// lineage (the pointer is carried, not copied, across publications):
	// the per-region layout plan, the measured router-maintenance
	// crossover, and the calibration latch. See tuner.go. May be nil for
	// trees built by internal surgery; all tuner entry points tolerate
	// that.
	tune *tuneState[K]
}

// initRouter installs a fresh empty router of the kind selected by o,
// keeping both the interface (for cold structural operations) and the
// concrete pointer (for the devirtualized lookup path).
func (t *Tree[K, V]) initRouter(o Options) {
	if o.Router == RouterImplicit {
		r := &implicitRouter[K, V]{}
		t.idx, t.rim = r, r
		return
	}
	r := &btreeRouter[K, V]{tr: btree.New[K, *page[K, V]](o.Fanout)}
	t.idx, t.rbt = r, r.tr
}

// adoptRouter installs a persistent clone of src's router: the B+ tree
// router shares every node with src until a mutation copies its descent
// path (btree.CloneCOW); the implicit router copies its flat arrays, the
// documented O(segments) cost of the read-optimized variant. src is only
// read, so adopting is safe while other goroutines read src.
func (t *Tree[K, V]) adoptRouter(src *Tree[K, V]) {
	if src.rim != nil {
		r := src.rim.clone()
		t.idx, t.rim = r, r
		return
	}
	tr := src.rbt.CloneCOW()
	t.idx, t.rbt = &btreeRouter[K, V]{tr: tr}, tr
}

// routedEntries derives the router's content from a chunked chain: one
// entry per run of equal start keys, keyed by the run's start and valued
// with the run's first page.
func routedEntries[K num.Key, V any](chunks []*chunk[K, V]) ([]K, []*page[K, V]) {
	var keys []K
	var pages []*page[K, V]
	var prev *page[K, V]
	for _, c := range chunks {
		for _, p := range c.pages {
			if prev == nil || prev.start() != p.start() {
				keys = append(keys, p.start())
				pages = append(pages, p)
			}
			prev = p
		}
	}
	return keys, pages
}

// loadRouter bulk-loads the router from the tree's chunks.
func (t *Tree[K, V]) loadRouter(fill float64) error {
	rk, rl := routedEntries(t.chunks)
	return t.idx.bulkLoad(rk, rl, fill)
}

// BulkLoad builds a FITing-Tree over sorted keys (duplicates allowed) and
// their parallel values using the one-pass ShrinkingCone segmentation
// (Section 3). The input slices are copied into per-segment pages.
func BulkLoad[K num.Key, V any](keys []K, vals []V, opts Options) (*Tree[K, V], error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("fitingtree: %d keys but %d values", len(keys), len(vals))
	}
	for i := range keys {
		// NaN float keys compare false against everything, so they would
		// slip through the sortedness check and corrupt routing.
		if keys[i] != keys[i] {
			return nil, fmt.Errorf("fitingtree: NaN key at index %d", i)
		}
		if i > 0 && keys[i] < keys[i-1] {
			return nil, fmt.Errorf("fitingtree: keys not sorted at index %d", i)
		}
	}
	t := &Tree[K, V]{
		opts:   o,
		size:   len(keys),
		segErr: o.segError(),
		strat:  o.Search,
		tune:   &tuneState[K]{},
	}
	t.initRouter(o)
	if len(keys) == 0 {
		return t, nil
	}

	segs := segment.ShrinkingCone(keys, o.segError())
	pages := make([]*page[K, V], len(segs))
	for i, s := range segs {
		pages[i] = newPage(
			pageSeq.Add(1),
			segment.Segment[K]{Start: s.Start, StartPos: 0, Count: s.Count, Slope: s.Slope},
			append([]K(nil), keys[s.StartPos:s.EndPos()]...),
			append([]V(nil), vals[s.StartPos:s.EndPos()]...),
			o.segError(),
		)
	}
	t.chunks, t.npages = cutChunks(pages), len(pages)
	// Only the first page of a run of equal start keys goes in the inner
	// tree; lookups reach the rest via the chain.
	if err := t.loadRouter(o.FillFactor); err != nil {
		return nil, fmt.Errorf("fitingtree: inner tree: %w", err)
	}
	return t, nil
}

// Options returns the tree's normalized options.
func (t *Tree[K, V]) Options() Options { return t.opts }

// Len returns the number of stored elements, including buffered inserts.
func (t *Tree[K, V]) Len() int { return t.size }

// Counters returns maintenance counters accumulated since the build.
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

// pageOf returns the page the cursor addresses.
func (t *Tree[K, V]) pageOf(cu cursor[K, V]) *page[K, V] { return cu.c.pages[cu.pi] }

// pageCursor finds the cursor of a page the router handed out. Chunk and
// page start keys ascend, so two binary searches narrow to the page's
// equal-start run; the residual pointer scan only exceeds one step inside
// long duplicate runs. Point lookups that hit the routed page itself never
// call this — only chain walks (duplicate spill, run traversal, splices)
// pay for coordinates.
func (t *Tree[K, V]) pageCursor(p *page[K, V]) cursor[K, V] {
	s := p.start()
	// Last chunk whose start key is <= s.
	lo, hi := 0, len(t.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.chunks[mid].start() <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ci := lo - 1; ci >= 0; ci-- {
		c := t.chunks[ci]
		// Leftmost page with start >= s in this chunk, then scan the
		// equal-start run for identity.
		plo, phi := 0, len(c.pages)
		for plo < phi {
			mid := int(uint(plo+phi) >> 1)
			if c.pages[mid].start() < s {
				plo = mid + 1
			} else {
				phi = mid
			}
		}
		for pi := plo; pi < len(c.pages) && c.pages[pi].start() == s; pi++ {
			if c.pages[pi] == p {
				return cursor[K, V]{c: c, pi: pi, ci: ci}
			}
		}
		if c.start() != s {
			// The run begins inside this chunk, so it cannot extend into
			// an earlier one.
			break
		}
	}
	panic("fitingtree: page not in chain")
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

// first returns the cursor of the chain's first page; ok is false for an
// empty tree.
func (t *Tree[K, V]) first() (cursor[K, V], bool) {
	if len(t.chunks) == 0 {
		return cursor[K, V]{}, false
	}
	return cursor[K, V]{c: t.chunks[0], pi: 0, ci: 0}, true
}

// last returns the cursor of the chain's last page; ok is false for an
// empty tree.
func (t *Tree[K, V]) last() (cursor[K, V], bool) {
	if len(t.chunks) == 0 {
		return cursor[K, V]{}, false
	}
	ci := len(t.chunks) - 1
	c := t.chunks[ci]
	return cursor[K, V]{c: c, pi: len(c.pages) - 1, ci: ci}, true
}

// isRouted reports whether the page at cu carries its own routing entry:
// only the first page of a run of equal start keys is registered in the
// router; the rest are reached by walking the chain.
func (t *Tree[K, V]) isRouted(cu cursor[K, V]) bool {
	p, ok := t.prev(cu)
	return !ok || t.pageOf(p).start() != t.pageOf(cu).start()
}

// locatePage returns the page whose range contains k: the router's floor
// entry, or the chain's first page when k precedes every routing key. ok
// is false only for an empty tree. The router call is devirtualized: the
// concrete floor search is reached directly rather than through the
// router interface, which would block inlining on the hottest call of a
// lookup. No chain coordinates are computed — the common point lookup
// searches the returned page and never needs any.
func (t *Tree[K, V]) locatePage(k K) (*page[K, V], bool) {
	if len(t.chunks) == 0 {
		return nil, false
	}
	var p *page[K, V]
	var ok bool
	if t.rim != nil {
		p, ok = t.rim.floor(k)
	} else {
		_, p, ok = t.rbt.Floor(k)
	}
	if !ok {
		return t.chunks[0].pages[0], true
	}
	return p, true
}

// locateCursor is locatePage with chain coordinates attached, for the
// operations that walk the chain from the routed page.
func (t *Tree[K, V]) locateCursor(k K) (cursor[K, V], bool) {
	p, ok := t.locatePage(k)
	if !ok {
		return cursor[K, V]{}, false
	}
	return t.pageCursor(p), true
}

// searchPage looks for k inside a single page (segment data window plus
// buffer). It returns the value of the first match found. The window
// half-width is the page's own build-time error bound, not the tree
// default: under a region plan, pages in different regions carry
// different ε.
func (t *Tree[K, V]) searchPage(p *page[K, V], k K) (V, bool) {
	if i, ok := p.dataSearch(k, p.werr, t.strat); ok {
		return p.vals[i], true
	}
	if i, ok := findKey(p.bufKeys, k); ok {
		return p.bufVals[i], true
	}
	var zero V
	return zero, false
}

// firstCandidate returns the cursor of the earliest page that could
// contain k. Usually that is the router's floor page, but duplicate runs
// can spill keys equal to k into the tails of preceding pages, and
// deletions can leave a key only in an earlier page of the run.
func (t *Tree[K, V]) firstCandidate(k K) (cursor[K, V], bool) {
	cu, ok := t.locateCursor(k)
	if !ok {
		return cu, false
	}
	return t.backUp(cu, k), true
}

// backUp rewinds cu over the preceding pages whose content reaches k
// (duplicate spill).
func (t *Tree[K, V]) backUp(cu cursor[K, V], k K) cursor[K, V] {
	for {
		p, ok := t.prev(cu)
		if !ok || t.pageOf(p).lastKey() < k {
			return cu
		}
		cu = p
	}
}

// Lookup returns a value stored under k. When k has duplicates, an
// arbitrary match is returned; use Each for all of them.
func (t *Tree[K, V]) Lookup(k K) (V, bool) {
	p, ok := t.locatePage(k)
	if !ok {
		var zero V
		return zero, false
	}
	// Read-load sampling for the tuner: 1 in readSamplePages pages (by
	// identity, so the gate costs one mask on data already loaded) counts
	// its lookups, scaled back up. Pages off the sample never touch
	// shared memory here.
	if p.id&(readSamplePages-1) == 0 {
		atomic.AddUint64(&p.reads, readSamplePages)
	}
	// Fast path: the routed page holds a match; no chain coordinates are
	// ever derived.
	if v, found := t.searchPage(p, k); found {
		return v, true
	}
	// Miss on the routed page: the key may sit in a preceding page
	// (duplicate spill, deletions) or a later page of an equal-start run.
	return t.searchFrom(t.pageCursor(p), k)
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
	if !ok {
		return
	}
	for {
		if p := t.pageOf(cu); !p.eachMatch(k, p.werr, t.strat, fn) {
			return
		}
		nx, has := t.next(cu)
		if !has || t.pageOf(nx).start() > k {
			return
		}
		cu = nx
	}
}

// dataSearch looks for k in the page's sorted data, restricted to the
// prediction window of width 2*err around the interpolated position
// (widened transparently by pending deletions, which can shift true
// positions). It returns the index of the leftmost element equal to k.
func (p *page[K, V]) dataSearch(k K, err int, strat SearchStrategy) (int, bool) {
	n := len(p.keys)
	if n == 0 {
		return 0, false
	}
	w := err + p.deletes
	pred := p.seg.Predict(k)
	lo := num.ClampInt(int(pred)-w, 0, n-1)
	hi := num.ClampInt(int(pred)+w+1, 0, n) // exclusive
	var i int
	var ok bool
	if ks, isStr := any(p.keys).([]string); isStr && p.pref != nil {
		kk := any(k).(string)
		kp := num.StringPrefix(kk)
		if p.fixed8 && len(kk) == 8 {
			// Fixed-width codec keys: the sidecar is a lossless image of
			// the key column, so the search never touches string data.
			at := num.ClampInt(int(pred), lo, hi-1)
			switch strat {
			case SearchLinear:
				i, ok = linearSearch(p.pref, lo, hi, at, kp)
			case SearchExponential:
				i, ok = exponentialSearch(p.pref, lo, hi, at, kp)
			default:
				i, ok = binarySearch(p.pref, lo, hi, kp)
			}
			if !ok {
				return i, false
			}
			for i > 0 && p.pref[i-1] == kp {
				i--
			}
			return i, true
		}
		i, ok = prefixWindowSearch(p.pref, ks, lo, hi, num.ClampInt(int(pred), lo, hi-1), kk, kp, strat)
		if !ok {
			return i, false
		}
		for i > 0 && p.pref[i-1] == kp && ks[i-1] == kk {
			i--
		}
		return i, true
	}
	switch strat {
	case SearchLinear:
		i, ok = linearSearch(p.keys, lo, hi, num.ClampInt(int(pred), lo, hi-1), k)
	case SearchExponential:
		i, ok = exponentialSearch(p.keys, lo, hi, num.ClampInt(int(pred), lo, hi-1), k)
	default:
		i, ok = binarySearch(p.keys, lo, hi, k)
	}
	if !ok {
		return i, false
	}
	// Normalize to the leftmost duplicate; every copy of k lies inside the
	// window, so the rewind is bounded by 2*err.
	for i > 0 && p.keys[i-1] == k {
		i--
	}
	return i, true
}

// prefixWindowSearch is dataSearch's window search for string keys. The
// probes bisect the page's prefix sidecar — one contiguous integer array,
// the access pattern a numeric page enjoys — and the prefix is weakly
// monotone, so an unequal prefix pair decides the order with one integer
// compare. Only a prefix tie dereferences the actual strings. Ordered-
// bytes codec keys resolve almost every probe on the integer path, which
// is what keeps string-keyed lookups within small-constant reach of
// native numeric ones.
func prefixWindowSearch(pref []uint64, keys []string, lo, hi, at int, k string, kp uint64, strat SearchStrategy) (int, bool) {
	switch strat {
	case SearchLinear:
		return prefixLinearSearch(pref, keys, lo, hi, at, k, kp)
	case SearchExponential:
		return prefixExponentialSearch(pref, keys, lo, hi, at, k, kp)
	}
	return prefixBinarySearch(pref, keys, lo, hi, k, kp)
}

// prefixBinarySearch is binarySearch over the prefix sidecar.
func prefixBinarySearch(pref []uint64, keys []string, lo, hi int, k string, kp uint64) (int, bool) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		mp := pref[mid]
		if mp < kp || (mp == kp && keys[mid] < k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && pref[lo] == kp && keys[lo] == k {
		return lo, true
	}
	return lo, false
}

// prefixLinearSearch is linearSearch over the prefix sidecar.
func prefixLinearSearch(pref []uint64, keys []string, lo, hi, at int, k string, kp uint64) (int, bool) {
	if pref[at] < kp || (pref[at] == kp && keys[at] < k) {
		for i := at; i < hi; i++ {
			p := pref[i]
			if p < kp {
				continue
			}
			if p > kp {
				return i, false
			}
			if keys[i] == k {
				return i, true
			}
			if keys[i] > k {
				return i, false
			}
		}
		return hi, false
	}
	for i := at; i >= lo; i-- {
		p := pref[i]
		if p > kp {
			continue
		}
		if p < kp {
			return i + 1, false
		}
		if keys[i] == k {
			return i, true
		}
		if keys[i] < k {
			return i + 1, false
		}
	}
	return lo, false
}

// prefixExponentialSearch is exponentialSearch over the prefix sidecar.
func prefixExponentialSearch(pref []uint64, keys []string, lo, hi, at int, k string, kp uint64) (int, bool) {
	if pref[at] < kp || (pref[at] == kp && keys[at] < k) {
		step := 1
		prev := at
		i := at + 1
		for i < hi {
			p := pref[i]
			if !(p < kp || (p == kp && keys[i] < k)) {
				break
			}
			prev = i
			i += step
			step *= 2
		}
		return prefixBinarySearch(pref, keys, prev+1, num.MinInt(i+1, hi), k, kp)
	}
	step := 1
	prev := at
	i := at - 1
	for i >= lo {
		p := pref[i]
		if !(p > kp || (p == kp && keys[i] > k)) {
			break
		}
		prev = i
		i -= step
		step *= 2
	}
	return prefixBinarySearch(pref, keys, num.MaxInt(i, lo), prev+1, k, kp)
}

// binarySearch returns the leftmost index of k in keys[lo:hi).
func binarySearch[K num.Key](keys []K, lo, hi int, k K) (int, bool) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == k {
		return lo, true
	}
	return lo, false
}

// linearSearch scans from the predicted position toward k within
// keys[lo:hi).
func linearSearch[K num.Key](keys []K, lo, hi, at int, k K) (int, bool) {
	if keys[at] < k {
		for i := at; i < hi; i++ {
			if keys[i] == k {
				return i, true
			}
			if keys[i] > k {
				return i, false
			}
		}
		return hi, false
	}
	for i := at; i >= lo; i-- {
		if keys[i] == k {
			return i, true
		}
		if keys[i] < k {
			return i + 1, false
		}
	}
	return lo, false
}

// exponentialSearch gallops from the predicted position with doubling
// steps until k is bracketed, then binary-searches the bracket. All work
// stays inside keys[lo:hi).
func exponentialSearch[K num.Key](keys []K, lo, hi, at int, k K) (int, bool) {
	if keys[at] < k {
		step := 1
		prev := at
		i := at + 1
		for i < hi && keys[i] < k {
			prev = i
			i += step
			step *= 2
		}
		return binarySearch(keys, prev+1, num.MinInt(i+1, hi), k)
	}
	step := 1
	prev := at
	i := at - 1
	for i >= lo && keys[i] > k {
		prev = i
		i -= step
		step *= 2
	}
	return binarySearch(keys, num.MaxInt(i, lo), prev+1, k)
}

// eachMatch visits every element equal to k in this page; it reports false
// if fn requested a stop.
func (p *page[K, V]) eachMatch(k K, err int, strat SearchStrategy, fn func(v V) bool) bool {
	if i, ok := p.dataSearch(k, err, strat); ok {
		for j := i; j < len(p.keys) && p.keys[j] == k; j++ {
			if !fn(p.vals[j]) {
				return false
			}
		}
	}
	if i, ok := findKey(p.bufKeys, k); ok {
		for j := i; j < len(p.bufKeys) && p.bufKeys[j] == k; j++ {
			if !fn(p.bufVals[j]) {
				return false
			}
		}
	}
	return true
}

// findKey binary-searches a small sorted slice for the first occurrence of
// k.
func findKey[K num.Key](keys []K, k K) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == k
}
