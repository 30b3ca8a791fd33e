package core

import (
	"sort"

	"fitingtree/internal/num"
)

// PageBounds returns, per page in chain order, the page's routing start key
// and its element count (segment data plus buffered inserts). The pairs
// describe how the tree's content is distributed over the key space — a
// range partitioner uses them as candidate cut points (starts) weighted by
// how many elements each cut would move (weights). Weights sum to Len().
func (t *Tree[K, V]) PageBounds() (starts []K, weights []int) {
	if len(t.chunks) == 0 {
		return nil, nil
	}
	for _, c := range t.chunks {
		for _, p := range c.pages {
			starts = append(starts, p.start())
			weights = append(weights, len(p.keys)+len(p.bufKeys))
		}
	}
	return starts, weights
}

// PartitionByWeight picks up to n-1 strictly increasing fence keys from the
// candidate cut points starts (sorted, parallel to weights) so that the n
// ranges they induce carry near-equal total weight. Cutting is restricted
// to candidate starts, so a fence never splits a candidate's weight — for
// candidates produced by PageBounds that means a fence never lands inside a
// page, and every key compares into exactly one range.
// Duplicate candidate starts (equal-start page runs) are never chosen
// twice. Fewer than n-1 fences are returned when the candidates cannot
// support n non-empty ranges.
//
// The greedy walk accumulates weight and cuts at the first candidate whose
// prefix weight reaches the next multiple of total/n; with page-sized
// weights the resulting imbalance is bounded by one page per range.
func PartitionByWeight[K num.Key](starts []K, weights []int, n int) []K {
	if n <= 1 || len(starts) < 2 {
		return nil
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil
	}
	fences := make([]K, 0, n-1)
	acc := 0
	for i, w := range weights {
		// A fence at starts[i] moves everything before position i to the
		// left of the cut; take the cut when the accumulated weight has
		// reached the next even share of the total.
		// starts are sorted, so requiring a strict step over the previous
		// candidate keeps the chosen fences strictly increasing and never
		// cuts inside an equal-start page run.
		if i > 0 && len(fences) < n-1 &&
			acc >= total*(len(fences)+1)/n &&
			starts[i] > starts[i-1] {
			fences = append(fences, starts[i])
		}
		acc += w
	}
	return fences
}

// QuantileFences cuts the chain the trees form (read in order as one, as
// for Cut) at element-count quantiles: fence i is the key at position
// i·n/want of the n elements in key order. A cut landing inside a
// duplicate run advances past it (fences must be strictly increasing and
// every key must compare into one range), so heavy duplicates can yield
// fewer than want-1 fences. Positions are found from page weights, so only
// the pages a cut lands in are read.
func QuantileFences[K num.Key, V any](trees []*Tree[K, V], want int) []K {
	var pages []*page[K, V]
	cum := []int{0} // cum[i] elements precede pages[i]
	for _, t := range trees {
		for _, c := range t.chunks {
			for _, p := range c.pages {
				pages = append(pages, p)
				cum = append(cum, cum[len(cum)-1]+len(p.keys)+len(p.bufKeys))
			}
		}
	}
	n := cum[len(pages)]
	keyAt := func(pos int) K {
		pi := sort.Search(len(pages), func(i int) bool { return cum[i+1] > pos })
		keys, _ := mergeSorted(pages[pi].keys, pages[pi].vals, pages[pi].bufKeys, pages[pi].bufVals)
		return keys[pos-cum[pi]]
	}
	var fences []K
	for i := 1; i < want; i++ {
		pos := i * n / want
		if pos <= 0 || pos >= n {
			continue
		}
		f := keyAt(pos)
		if keyAt(pos-1) == f {
			pi := sort.Search(len(pages), func(i int) bool { return pages[i].lastKey() > f })
			if pi == len(pages) {
				continue
			}
			p := pages[pi]
			f = keyAt(cum[pi] + upperBound(p.keys, f) + upperBound(p.bufKeys, f))
		}
		if len(fences) > 0 && f <= fences[len(fences)-1] {
			continue
		}
		fences = append(fences, f)
	}
	return fences
}

// Cut splits the chain the trees form — their chains read in order as one,
// so they must partition the key space in that order, as a shard set's
// base trees do — at strictly increasing fences, and returns one tree per
// fence range: tree i holds exactly the elements in [fences[i-1],
// fences[i]), the first and last ranges open-ended. A page that lies wholly
// in one range moves into that tree by reference, its start and head
// copied. A page a fence straddles — the fence falls inside its keys, or
// the fence key spills from a duplicate run into the page's tail — has its
// data and buffer merged and each side of every fence inside it
// re-segmented under the tree's bound. A cut therefore costs O(pages) plus
// the straddling pages' elements, never a pass over every key. Every output
// is cut into fresh chunks from its first page, exactly as BulkLoad cuts
// them, so on a freshly bulk-loaded chain a fence at a page start whose key
// the page before does not hold yields BulkLoad's pages and chunks on both
// sides: ShrinkingCone restarted at a segment start reproduces the segments
// that follow. The inputs are only read, but they share their pages with
// the outputs, so they must not be edited in place afterwards. With one
// input and no fences the input itself is returned.
func Cut[K num.Key, V any](trees []*Tree[K, V], fences []K) []*Tree[K, V] {
	if len(trees) == 1 && len(fences) == 0 {
		return trees
	}
	out := make([]*Tree[K, V], 0, len(fences)+1)
	var run pageRun[K, V]
	// The run's sums; re-cut pages bring no buffer and no deletes.
	size, buffered, deletes := 0, 0, 0
	next := func() { // closes the tree being assembled and opens the next
		t := &Tree[K, V]{opts: trees[0].opts, size: size, npages: len(run.pages),
			buffered: buffered, deletes: deletes, fill0: trees[0].fill0}
		t.setChunks(cutChunks(run))
		out, run, size, buffered, deletes = append(out, t), pageRun[K, V]{}, 0, 0, 0
	}
	for _, tr := range trees {
		for _, c := range tr.chunks {
			for pi, p := range c.pages {
				for len(out) < len(fences) && p.firstKey() >= fences[len(out)] {
					next()
				}
				if len(out) == len(fences) || p.lastKey() < fences[len(out)] {
					run.carry(c, pi, pi+1)
					size += len(p.keys) + len(p.bufKeys)
					buffered += len(p.bufKeys)
					deletes += p.deletes
					continue
				}
				keys, vals := mergeSorted(p.keys, p.vals, p.bufKeys, p.bufVals)
				for len(keys) > 0 {
					n := len(keys)
					if len(out) < len(fences) {
						n = lowerBound(keys, 0, n, fences[len(out)])
					}
					pages := tr.buildPages(keys[:n], vals[:n], new(Counters))
					stampIDs([][]*page[K, V]{pages})
					run.add(tr.opts.segError(), pages...)
					size += n
					if n < len(keys) {
						next()
					}
					keys, vals = keys[n:], vals[n:]
				}
			}
		}
	}
	for len(out) <= len(fences) {
		next()
	}
	return out
}
