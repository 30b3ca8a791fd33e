// Self-tuning: the live feedback loop that turns the paper's Section 6
// cost model into a runtime knob. Pages carry sampled read/write load
// counters (see page.reads/page.writes); Retune folds those counters into
// a per-region layout plan — tight ε where the sampled traffic
// concentrates, loose ε where regions idle and index memory is better
// reclaimed, with a matching per-region chunk-size target — and stores it
// in the tuneState every tree of a MergeCOW lineage shares.
// The plan is applied lazily: nothing is rebuilt when a plan changes;
// MergeCOW and merge simply segment the regions they were going to
// rebuild anyway under the region's targets, recording the bound used on
// each page (page.werr).
package core

import (
	"math"
	"sync/atomic"

	"fitingtree/internal/costmodel"
	"fitingtree/internal/num"
)

const (
	// readSamplePages gates the lookup-side load counters: only pages
	// whose identity is 0 mod readSamplePages count their lookups (scaled
	// back up), so 63 of 64 pages never touch shared memory on the read
	// hot path. Must be a power of two.
	readSamplePages = 64

	// underfullDiv sets the under-full threshold: a chunk with fewer than
	// chunkTarget/underfullDiv pages is absorbed into the next fold that
	// rebuilds an adjacent region, bounding the degenerate chunks a
	// delete-heavy run can accumulate.
	underfullDiv = 4

	// tuneRegions is how many equal-element-mass regions Retune carves
	// the key space into.
	tuneRegions = 8

	// chunkTargetHot and chunkTargetCold are the per-region chunk-size
	// targets for write-dominated and read-dominated regions; mixed
	// regions keep chunkTarget. Both stay within chunkMax so the splice
	// invariants are untouched.
	chunkTargetHot  = 24
	chunkTargetCold = 96

	// tunerCacheMissNs is the cache-miss constant fed to the per-region
	// cost models; the paper's 50ns stands in so Retune never pays a
	// measurement (the scoring below compares candidates, not SLAs).
	tunerCacheMissNs = 50

	// tunerSizeNsPerByte prices a byte of predicted index size in the
	// region score's nanosecond units. It is the tension that keeps the
	// model from degenerating: both predicted lookup and insert latency
	// improve as ε shrinks (smaller search windows, smaller merge
	// rewrites), so without a size term every loaded region would pick the
	// ladder floor and the index would grow without bound. The price is a
	// handful of cache misses per byte rather than one: an index byte is
	// not a one-shot cost — it stays resident, evicting data bytes for
	// the plan's whole lifetime — and the model's window-search term
	// (binary search over the full ε window) overstates what loose bounds
	// really cost a lookup here, since pages interpolate internally and
	// land within a few cache lines of the key on data far smoother than
	// the worst case ε admits. Under this price a region must sample
	// traffic comparable to several visits per predicted index byte each
	// tuning interval before doubling its segment count — regions where
	// the measured traffic concentrates hold tight bounds, idle and
	// write-dominated regions drift loose and return their index memory.
	tunerSizeNsPerByte = 8 * tunerCacheMissNs

	// modelFanout and modelFill are the inner-tree order and fill the
	// per-region models assume (the paper's evaluation setup): parameters
	// of the model, not properties of this tree, whose inner structure is
	// the chain's own start arrays.
	modelFanout = 16
	modelFill   = 0.5
)

// tuneState is the self-tuning state of one tree lineage. MergeCOW carries
// the pointer into every tree it publishes, so the plan survives
// publications without copying.
type tuneState[K num.Key] struct {
	plan atomic.Pointer[regionPlan[K]] // current per-region targets; nil = untuned
}

// planOf returns the current region plan; nil when untuned or when the
// tree predates the tuning state.
func (ts *tuneState[K]) planOf() *regionPlan[K] {
	if ts == nil {
		return nil
	}
	return ts.plan.Load()
}

// RegionStat describes one tuner region: its layout targets and the load
// sample that produced them. Exposed through Stats so tools and tests can
// observe tuner decisions.
type RegionStat struct {
	Epsilon     int  // target error threshold E for the region
	ChunkTarget int  // target pages per chunk for the region
	WriteHot    bool // writes dominate the region's sampled load
	Pages       int  // pages in the region when the plan was made
	Elements    int  // elements in the region when the plan was made
	Reads       uint64
	Writes      uint64
}

// RegionTarget is a region's start key plus its targets; regions partition
// the key space, the first one extending down to -inf.
type RegionTarget[K num.Key] struct {
	Start K
	RegionStat
}

// regionPlan is an immutable per-region layout plan, replaced wholesale by
// Retune and read lock-free by rebuild paths.
type regionPlan[K num.Key] struct {
	targets []RegionTarget[K] // ascending, strictly increasing Start
}

// regionOf returns the index of the region holding k (floor; keys below
// the first start map to region 0).
func (p *regionPlan[K]) regionOf(k K) int {
	lo, hi := 0, len(p.targets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.targets[mid].Start <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// chunkTargetFor returns the chunk-size target of the region holding k.
func (p *regionPlan[K]) chunkTargetFor(k K) int {
	if len(p.targets) == 0 {
		return chunkTarget
	}
	return p.targets[p.regionOf(k)].ChunkTarget
}

// segErrAt returns region i's segmentation error bound after reserving
// buffer room (the per-region analogue of Options.segError).
func (p *regionPlan[K]) segErrAt(i, bufferSize int) int {
	return num.MaxInt(1, p.targets[i].Epsilon-bufferSize)
}

// segErrFor returns the segmentation error bound to build a page starting
// at k: the region target when a plan exists, the global default
// otherwise.
func (t *Tree[K, V]) segErrFor(k K) int {
	plan := t.tune.planOf()
	if plan == nil || len(plan.targets) == 0 {
		return t.opts.segError()
	}
	return plan.segErrAt(plan.regionOf(k), t.opts.BufferSize)
}

// underfull reports whether a chunk has decayed below the re-merge
// threshold.
func underfull[K num.Key, V any](c *chunk[K, V]) bool {
	return len(c.pages) < chunkTarget/underfullDiv
}

// carryLoad seeds the load counters of freshly rebuilt pages from the
// region they replace: half the accumulated totals (exponential decay, so
// stale traffic fades across rebuilds) plus the op count of the batch
// that triggered the rebuild, spread evenly. Rebuilt pages register at
// least one write event, so write-hot regions are visible to Retune even
// before counters accumulate.
func carryLoad[K num.Key, V any](srcReads, srcWrites uint64, ops int, rebuilt []*page[K, V]) {
	if len(rebuilt) == 0 {
		return
	}
	n := uint64(len(rebuilt))
	r := srcReads / 2 / n
	w := (srcWrites/2 + uint64(ops)) / n
	if w == 0 {
		w = 1
	}
	for _, p := range rebuilt {
		atomic.StoreUint64(&p.reads, r)
		atomic.StoreUint64(&p.writes, w)
	}
}

// PageErrorBounds returns every page's recorded error bound (page.werr)
// in chain order — the persisted quantity recovery must reproduce for a
// tuned layout to survive a restart. Observability for tools and tests.
func (t *Tree[K, V]) PageErrorBounds() []int {
	out := make([]int, 0, t.NumPages())
	for _, c := range t.chunks {
		for _, p := range c.pages {
			out = append(out, p.werr)
		}
	}
	return out
}

// ChunkLoad is one chunk's position and sampled load, the feed for
// skew-aware shard fence placement.
type ChunkLoad[K num.Key] struct {
	Start    K
	Pages    int
	Elements int
	Reads    uint64
	Writes   uint64
}

// ChunkLoads returns every chunk's load counters in chain order.
func (t *Tree[K, V]) ChunkLoads() []ChunkLoad[K] {
	loads := make([]ChunkLoad[K], 0, len(t.chunks))
	for _, c := range t.chunks {
		l := ChunkLoad[K]{Start: c.start(), Pages: len(c.pages)}
		for _, p := range c.pages {
			l.Elements += len(p.keys) - p.deletes + len(p.bufKeys)
			l.Reads += atomic.LoadUint64(&p.reads)
			l.Writes += atomic.LoadUint64(&p.writes)
		}
		loads = append(loads, l)
	}
	return loads
}

// Retune derives a fresh per-region layout plan from the accumulated load
// counters and publishes it to the lineage's tuning state. Nothing is
// rebuilt here: the plan takes effect lazily, as MergeCOW/merge rebuild
// dirty regions. Safe to call on a published (immutable) tree while
// readers and a concurrent MergeCOW run; returns the new plan's regions,
// or nil when the tree is empty or carries no tuning state.
func (t *Tree[K, V]) Retune() []RegionStat {
	if t.tune == nil || len(t.chunks) == 0 {
		return nil
	}
	type load struct {
		start         K
		pages, elems  int
		werrSum       int
		reads, writes uint64
	}
	loads := make([]load, 0, len(t.chunks))
	total := 0
	for _, c := range t.chunks {
		l := load{start: c.start()}
		for _, p := range c.pages {
			l.pages++
			l.elems += len(p.keys) - p.deletes + len(p.bufKeys)
			l.werrSum += p.werr
			l.reads += atomic.LoadUint64(&p.reads)
			l.writes += atomic.LoadUint64(&p.writes)
		}
		loads = append(loads, l)
		total += l.elems
	}
	// Group adjacent chunks into ~tuneRegions regions of equal element
	// mass, boundaries on chunk starts; region starts must strictly
	// ascend for the floor lookup, so a chunk repeating the previous
	// region's start key always merges into it.
	share := total/tuneRegions + 1
	regions := make([]load, 1, tuneRegions+1)
	regions[0] = loads[0]
	for _, l := range loads[1:] {
		r := &regions[len(regions)-1]
		if r.elems >= share && l.start > r.start {
			regions = append(regions, l)
			continue
		}
		r.pages += l.pages
		r.elems += l.elems
		r.werrSum += l.werrSum
		r.reads += l.reads
		r.writes += l.writes
	}
	cands := epsilonLadder(t.opts)
	targets := make([]RegionTarget[K], 0, len(regions))
	stats := make([]RegionStat, 0, len(regions))
	for _, r := range regions {
		st := RegionStat{
			Epsilon:     t.opts.Error,
			ChunkTarget: chunkTarget,
			Pages:       r.pages,
			Elements:    r.elems,
			Reads:       r.reads,
			Writes:      r.writes,
		}
		if r.reads+r.writes > 0 {
			st.Epsilon = pickEpsilon(t.opts, cands, r.pages, r.werrSum, r.elems, r.reads, r.writes)
			wf := float64(r.writes) / float64(r.reads+r.writes)
			st.WriteHot = wf >= 0.5
			switch {
			case wf >= 0.75:
				st.ChunkTarget = chunkTargetHot
			case wf <= 0.25:
				st.ChunkTarget = chunkTargetCold
			}
		}
		targets = append(targets, RegionTarget[K]{Start: r.start, RegionStat: st})
		stats = append(stats, st)
	}
	t.tune.plan.Store(&regionPlan[K]{targets: targets})
	return stats
}

// epsilonLadder returns the candidate error thresholds Retune scores: a
// geometric ladder around the configured Error, floored so every
// candidate leaves the insert buffer at least one unit of segmentation
// error.
func epsilonLadder(o Options) []int {
	minE := num.MaxInt(1, o.BufferSize+1)
	raw := [...]int{o.Error / 8, o.Error / 4, o.Error / 2, o.Error, o.Error * 2, o.Error * 4, o.Error * 8}
	out := make([]int, 0, len(raw))
	for _, e := range raw {
		if e < minE {
			e = minE
		}
		if n := len(out); n == 0 || out[n-1] < e {
			out = append(out, e)
		}
	}
	return out
}

// pickEpsilon scores the candidate thresholds for one region with the
// Section 6 cost model and returns the argmin of the load-weighted sum of
// predicted lookup and insert latency plus the priced index size
// (tunerSizeNsPerByte). The model's segment-count samples are synthesized
// from the region's current layout (segments scale inversely with the
// segmentation error), so no re-segmentation runs.
func pickEpsilon(o Options, cands []int, pages, werrSum, elems int, reads, writes uint64) int {
	if pages == 0 {
		return o.Error
	}
	segErrNow := num.MaxInt(1, werrSum/pages)
	segs := make([]int, len(cands))
	for i, e := range cands {
		se := num.MaxInt(1, e-o.BufferSize)
		segs[i] = num.MaxInt(1, pages*segErrNow/se)
	}
	frac := float64(o.BufferSize) / float64(o.Error)
	m, err := costmodel.NewFromSamples(cands, segs, tunerCacheMissNs, modelFanout, modelFill, frac)
	if err != nil {
		return o.Error
	}
	m.Elements = elems
	rw, ww := float64(reads)+1, float64(writes)+1
	best, bestScore := o.Error, math.Inf(1)
	for _, e := range cands {
		s := rw*m.Latency(e) + ww*m.InsertLatency(e) + tunerSizeNsPerByte*float64(m.Size(e))
		if s < bestScore {
			best, bestScore = e, s
		}
	}
	return best
}
