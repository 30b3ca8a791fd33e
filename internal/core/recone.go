package core

import (
	"slices"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// Recone's trigger, pick and budget (see Recone).
const (
	reconeTrigger = 0.98
	reconeLoose   = 4
	reconeOps     = 256
)

// fillOf returns elements per page.
func fillOf(elems, pages int) float64 { return float64(elems) / float64(max(pages, 1)) }

// Recone pulls a written chain back toward a whole build's page count: a
// page whose refit fails is cut into loose pages, so folds leave more pages
// than a BulkLoad of the content makes. While t's fill is below
// reconeTrigger of its fill at its last whole build and no page holds an
// insert buffer, Recone re-segments up to folded/reconeOps chunks holding
// reconeLoose or more loose pages, each by one serial ShrinkingCone pass
// over its keys into pages with exact bounds, spliced in copy-on-write (a
// re-cone that would make more pages is dropped); t itself when there is
// nothing to do. A fold of folded ops that publishes its tree calls it on
// that tree. The sweep resumes where the last one stopped, so what it picks
// depends on the tree and the op counts alone, never on GOMAXPROCS or timing.
func Recone[K num.Key, V any](t *Tree[K, V], folded int) *Tree[K, V] {
	budget, n := folded/reconeOps, len(t.chunks)
	if budget == 0 || t.buffered > 0 || fillOf(t.size, t.npages) >= reconeTrigger*t.fill0 {
		return t
	}
	var picked []int
	for i := 0; i < n && len(picked) < budget; i++ {
		ci, loose := (t.reconeAt+i)%n, 0
		for _, p := range t.chunks[ci].pages {
			if p.loose {
				loose++
			}
		}
		if loose >= reconeLoose {
			picked = append(picked, ci)
		}
	}
	if len(picked) == 0 {
		return t
	}
	nt := *t
	nt.reconeAt = picked[len(picked)-1] + 1
	slices.Sort(picked) // splice right to left: the indices left of a splice stay valid
	chunks := t.chunks
	var keys []K
	var vals []V
	for _, ci := range slices.Backward(picked) {
		c, dels := t.chunks[ci], 0
		keys, vals = keys[:0], vals[:0]
		for _, p := range c.pages {
			keys, vals, dels = append(keys, p.keys...), append(vals, p.vals...), dels+p.deletes
		}
		segs := segment.ShrinkingConeSerial(keys, t.opts.segError())
		if len(segs) > len(c.pages) {
			continue
		}
		pages := t.conedPages(keys, vals, segs)
		stampIDs([][]*page[K, V]{pages})
		run := makeRun[K, V](len(pages))
		run.add(t.opts.segError(), pages...)
		chunks = splice(chunks, ci, 1, cutChunks(run))
		nt.npages, nt.deletes = nt.npages+len(pages)-len(c.pages), nt.deletes-dels
	}
	nt.setChunks(chunks)
	return &nt
}
