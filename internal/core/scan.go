package core

import (
	"fmt"
	"time"

	"fitingtree/internal/num"
)

// lastKey returns the largest key present in the page (data or buffer).
// Pages are never empty.
func (p *page[K, V]) lastKey() K {
	if len(p.bufKeys) == 0 {
		return p.keys[len(p.keys)-1]
	}
	if len(p.keys) == 0 {
		return p.bufKeys[len(p.bufKeys)-1]
	}
	if b := p.bufKeys[len(p.bufKeys)-1]; b > p.keys[len(p.keys)-1] {
		return b
	}
	return p.keys[len(p.keys)-1]
}

// firstKey returns the smallest key present in the page (data or buffer).
func (p *page[K, V]) firstKey() K {
	if len(p.bufKeys) == 0 {
		return p.keys[0]
	}
	if len(p.keys) == 0 {
		return p.bufKeys[0]
	}
	if b := p.bufKeys[0]; b < p.keys[0] {
		return b
	}
	return p.keys[0]
}

// ascendPage merges the data and buffer of the page at cu in key order,
// calling fn for each pair with lo <= key <= hi, starting from the first
// key >= lo — found by the page's model (seek), not by searching the whole
// page. It reports false if fn requested a stop or a key passed hi.
func (t *Tree[K, V]) ascendPage(cu cursor[K, V], lo, hi K, fn func(k K, v V) bool) bool {
	p := cu.page()
	i, _ := t.seek(cu, lo)
	j, _ := findKey(p.bufKeys, lo)
	for i < len(p.keys) || j < len(p.bufKeys) {
		useData := j >= len(p.bufKeys) ||
			(i < len(p.keys) && p.keys[i] <= p.bufKeys[j])
		var k K
		var v V
		if useData {
			k, v = p.keys[i], p.vals[i]
		} else {
			k, v = p.bufKeys[j], p.bufVals[j]
		}
		if k > hi {
			return false
		}
		if !fn(k, v) {
			return false
		}
		if useData {
			i++
		} else {
			j++
		}
	}
	return true
}

// AscendRange calls fn for every element with lo <= key <= hi in ascending
// key order, stopping early if fn returns false. For a clustered index this
// is the paper's range query: one point lookup for the range start followed
// by a sequential scan (Section 4.2).
func (t *Tree[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	if hi < lo {
		return
	}
	// Keys equal to lo can spill into preceding pages' tails when
	// duplicate runs cross page boundaries, so start at the first
	// candidate page.
	cu, ok := t.firstCandidate(lo)
	for ok && t.ascendPage(cu, lo, hi, fn) {
		cu, ok = t.next(cu)
	}
}

// Ascend calls fn for every element in ascending key order, stopping early
// if fn returns false.
func (t *Tree[K, V]) Ascend(fn func(k K, v V) bool) {
	if len(t.chunks) == 0 {
		return
	}
	first := cursor[K, V]{c: t.chunks[0]}
	t.AscendRange(first.page().firstKey(), t.last().page().lastKey(), fn)
}

// descendPage merges the data and buffer of the page at cu in reverse key
// order, calling fn for each pair with lo <= key <= hi, starting from the
// last key <= hi: the element before hi's lower bound (seek), past hi's
// own duplicates. It reports false if fn requested a stop or a key fell
// below lo.
func (t *Tree[K, V]) descendPage(cu cursor[K, V], lo, hi K, fn func(k K, v V) bool) bool {
	p := cu.page()
	i, _ := t.seek(cu, hi)
	for i < len(p.keys) && p.keys[i] == hi {
		i++
	}
	i--
	j := upperBound(p.bufKeys, hi) - 1
	for i >= 0 || j >= 0 {
		useData := j < 0 || (i >= 0 && p.keys[i] >= p.bufKeys[j])
		var k K
		var v V
		if useData {
			k, v = p.keys[i], p.vals[i]
		} else {
			k, v = p.bufKeys[j], p.bufVals[j]
		}
		if k < lo {
			return false
		}
		if !fn(k, v) {
			return false
		}
		if useData {
			i--
		} else {
			j--
		}
	}
	return true
}

// DescendRange calls fn for every element with lo <= key <= hi in
// descending key order, stopping early if fn returns false (the reverse
// scan an ORDER BY ... DESC query plan wants).
func (t *Tree[K, V]) DescendRange(hi, lo K, fn func(k K, v V) bool) {
	if hi < lo || len(t.chunks) == 0 {
		return
	}
	// The located page is the last whose start is <= hi: nothing after it
	// can hold a key in range.
	cu, ok := t.locate(hi), true
	for ok && t.descendPage(cu, lo, hi, fn) {
		cu, ok = t.prev(cu)
	}
}

// Min returns the smallest key and one of its values.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if len(t.chunks) == 0 {
		var zk K
		var zv V
		return zk, zv, false
	}
	cu := cursor[K, V]{c: t.chunks[0]}
	k := cu.page().firstKey()
	v, _ := t.searchPage(cu, k)
	return k, v, true
}

// Max returns the largest key and one of its values. The chain gives the
// last page in O(1); no descent is needed.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if len(t.chunks) == 0 {
		var zk K
		var zv V
		return zk, zv, false
	}
	cu := t.last()
	k := cu.page().lastKey()
	v, _ := t.searchPage(cu, k)
	return k, v, true
}

// LookupBreakdown is Lookup instrumented with wall-clock timing of its two
// phases: the search of the chain's start arrays for the owning page and
// everything after it (the bounded search within the page, and the chain
// walk of a duplicate run). It drives the Figure 13 experiment.
func (t *Tree[K, V]) LookupBreakdown(k K) (v V, ok bool, treeNs, pageNs int64) {
	if len(t.chunks) == 0 {
		return v, false, 0, 0
	}
	start := time.Now()
	cu := t.locate(k)
	treeNs = time.Since(start).Nanoseconds()
	start = time.Now()
	v, ok = t.lookupAt(cu, k)
	pageNs = time.Since(start).Nanoseconds()
	return v, ok, treeNs, pageNs
}

// Stats describes the size and shape of a FITing-Tree and what the facades
// around it have done, every field read from a carried count.
type Stats struct {
	Elements int // total stored elements, including buffered ones
	Pages    int // number of variable-sized table pages (= segments)
	Chunks   int // number of chain chunks the pages are grouped into
	Buffered int // elements currently in insert buffers
	// Deletes is the pages' window widening pending re-segmentation:
	// in-place deletions, plus the excess bound of pages restored from a
	// store that recorded a looser one.
	Deletes int
	// FrozenLayers is the current depth of a concurrency facade's frozen
	// merge ladder (0 for a bare tree or a facade with no flush in
	// flight); LayerPending holds each frozen layer's pending op count
	// (inserts + tombstones), bottom — next to fold into the tree — to
	// top. Both are facade-level: Tree.Stats leaves them zero.
	FrozenLayers int
	LayerPending []int
	IndexSize    int64 // bytes: the start arrays (16 B per page and per chunk) + 24 B/segment metadata (paper's accounting)
	DataSize     int64 // bytes of table data incl. buffers (not part of the index)

	// Counters is the base trees' maintenance activity since the build,
	// summed over shards; pending deltas count once they fold.
	Counters Counters

	// The rest is facade-level (Tree.Stats leaves it zero). BackpressureFolds
	// counts writers that found the frozen ladder full and the active delta
	// past its bound, and ran the whole fold inline; flat means the
	// background pipeline absorbs the load.
	BackpressureFolds uint64
	// WALRecords counts the records in a durable store's logs now: the next
	// recovery's replay tail plus any checkpointed prefix not yet truncated.
	WALRecords int
	// WALReplayed, WALTornBytes and WALCorruptFrames sum what the store's
	// open found in its logs: records replayed, bytes cut as a torn append
	// (a crash), frames failing checksum or LSN order (corruption).
	WALReplayed      int
	WALTornBytes     int
	WALCorruptFrames int
}

// Stats returns the tree's statistics in O(1), from counts the tree
// carries. The IndexSize accounting matches the paper's SIZE(e) cost
// model: the inner tree's keys and pointers — here the chain's two levels
// of start arrays — plus 24 bytes of metadata (start key, slope, page
// address) per segment. DataSize is 16 bytes per element.
func (t *Tree[K, V]) Stats() Stats {
	return Stats{Elements: t.size, Pages: t.npages, Chunks: len(t.chunks), Buffered: t.buffered, Deletes: t.deletes,
		IndexSize: 16*int64(t.npages+len(t.chunks)) + 24*int64(t.npages), DataSize: 16 * int64(t.size), Counters: t.counters}
}

// CheckInvariants validates the tree's structural invariants; tests drive
// random workloads through the tree and call this afterwards.
func (t *Tree[K, V]) CheckInvariants() error {
	if len(t.starts) != len(t.chunks) {
		return fmt.Errorf("fitingtree: %d chunk starts for %d chunks", len(t.starts), len(t.chunks))
	}
	count, walked, buffered, deletes := 0, 0, 0, 0
	segErr := t.opts.segError()
	var prev *page[K, V]
	for ci, c := range t.chunks {
		walked += len(c.pages)
		if len(c.starts) != len(c.pages) || len(c.heads) != len(c.pages) {
			return fmt.Errorf("fitingtree: chunk %d holds %d pages, %d starts, %d heads", ci, len(c.pages), len(c.starts), len(c.heads))
		}
		if c.id == 0 {
			return fmt.Errorf("fitingtree: chunk %d has no identity", ci)
		}
		if len(c.pages) == 0 {
			return fmt.Errorf("fitingtree: empty chunk at %d", ci)
		}
		if len(c.pages) > chunkMax {
			return fmt.Errorf("fitingtree: chunk %d holds %d pages, max %d", ci, len(c.pages), chunkMax)
		}
		if t.starts[ci] != c.start() {
			return fmt.Errorf("fitingtree: chunk %d starts at %v, the tree's start array says %v", ci, c.start(), t.starts[ci])
		}
		for pi, p := range c.pages {
			if p.id == 0 {
				return fmt.Errorf("fitingtree: page %v has no identity", p.start())
			}
			if len(p.keys) == 0 && len(p.bufKeys) == 0 {
				return fmt.Errorf("fitingtree: empty page at %v", p.start())
			}
			// The start and head arrays are the index: they must equal what
			// their page derives, or lookups read a stale model.
			h, want := c.heads[pi], headOf(p, segErr)
			if c.starts[pi] != p.start() || h.x0 != want.x0 || h.slope != want.slope ||
				h.w != want.w || h.flags != want.flags ||
				len(h.keys) != len(p.keys) || len(h.vals) != len(p.vals) ||
				(len(p.keys) > 0 && (&h.keys[0] != &p.keys[0] || &h.vals[0] != &p.vals[0])) {
				return fmt.Errorf("fitingtree: stale start or head for page %v (chunk %d, index %d)", p.start(), ci, pi)
			}
			for i := 1; i < len(p.keys); i++ {
				if p.keys[i] < p.keys[i-1] {
					return fmt.Errorf("fitingtree: page data out of order at %v", p.start())
				}
			}
			for i := 1; i < len(p.bufKeys); i++ {
				if p.bufKeys[i] < p.bufKeys[i-1] {
					return fmt.Errorf("fitingtree: page buffer out of order at %v", p.start())
				}
			}
			if len(p.keys) != len(p.vals) || len(p.bufKeys) != len(p.bufVals) {
				return fmt.Errorf("fitingtree: key/value length mismatch at %v", p.start())
			}
			// String pages must carry an aligned prefix sidecar: the
			// window search probes it in place of the key array.
			if ks, isStr := any(p.keys).([]string); isStr && len(ks) > 0 {
				if len(p.pref) != len(ks) {
					return fmt.Errorf("fitingtree: prefix sidecar length %d, %d keys at %v", len(p.pref), len(ks), p.start())
				}
				for i, s := range ks {
					if p.pref[i] != num.StringPrefix(s) {
						return fmt.Errorf("fitingtree: stale prefix sidecar at %v offset %d", p.start(), i)
					}
					// fixed8 may be conservatively false (it is set at build
					// time), but never true over a key of another width: the
					// fast path would misread the sidecar as the key column.
					if p.fixed8 && len(s) != 8 {
						return fmt.Errorf("fitingtree: fixed-width flag over %d-byte key at %v", len(s), p.start())
					}
				}
			}
			if len(p.bufKeys) > max(1, t.opts.BufferSize) {
				return fmt.Errorf("fitingtree: buffer overflow (%d) at %v", len(p.bufKeys), p.start())
			}
			// Error bound: every data element within the tree's bound +
			// the page's deletes of its predicted position.
			for i := range p.keys {
				pred := p.seg.Predict(p.keys[i])
				dev := pred - float64(i)
				if dev < 0 {
					dev = -dev
				}
				if dev > float64(segErr+p.deletes)+1e-6 {
					return fmt.Errorf("fitingtree: error bound violated at page %v offset %d: |%.2f| > %d",
						p.start(), i, dev, segErr+p.deletes)
				}
			}
			// Chain order.
			if prev != nil {
				if p.start() < prev.start() {
					return fmt.Errorf("fitingtree: page starts out of order: %v after %v", p.start(), prev.start())
				}
				if prev.lastKey() > p.firstKey() {
					return fmt.Errorf("fitingtree: overlapping pages around %v", p.start())
				}
				// Stronger separation: a page's content never passes the
				// next page's routing key (equality is the duplicate-run
				// spill). MergeCOW relies on this to bound a dirty region's
				// content by the start key of the first untouched page
				// after it.
				if prev.lastKey() > p.start() {
					return fmt.Errorf("fitingtree: page before %v holds keys past that start", p.start())
				}
			}
			count += len(p.keys) + len(p.bufKeys)
			buffered += len(p.bufKeys)
			deletes += p.deletes
			prev = p
		}
	}
	if count != t.size {
		return fmt.Errorf("fitingtree: size %d but %d elements found", t.size, count)
	}
	if walked != t.npages || buffered != t.buffered || deletes != t.deletes {
		return fmt.Errorf("fitingtree: carried pages/buffered/deletes %d/%d/%d but the chain holds %d/%d/%d",
			t.npages, t.buffered, t.deletes, walked, buffered, deletes)
	}
	return nil
}
