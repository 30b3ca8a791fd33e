// Package segment implements the piece-wise linear segmentation at the core
// of FITing-Tree (Section 3 of the paper).
//
// A segment is a contiguous region of a sorted array such that every
// element's position is within a fixed error threshold of the position
// predicted by linear interpolation from the segment's first key. The
// objective is the maximal error norm E-infinity, not least squares: the
// error bound is what bounds the local search window after interpolation.
//
// Segment boundaries follow the paper's Section 3.1 exactly: a segment's
// line is anchored at the segment's first point, and a key may end a segment
// only if the line through it keeps every interior point within the error
// threshold. The ShrinkingCone greedy (Algorithm 2) tests this in O(1) per
// key by maintaining the cone of slopes that satisfy all absorbed points.
// The slope a finished segment records is a stated deviation from
// Algorithm 2: not the line to its last point, which sits on the cone's
// edge, but the least-squares slope through the origin clamped into the
// final cone. Every slope in the cone keeps every absorbed point within the
// threshold, so the bound is the paper's; the realised error is about half
// the endpoint line's, and that is what a lookup's window search pays for.
//
// Three segmentation algorithms are provided:
//
//   - ShrinkingCone: the paper's greedy one-pass algorithm. O(n) time,
//     O(1) working memory. Not competitive in the worst case (Appendix
//     A.3, reproduced by Adversarial), but close to optimal on real
//     distributions (Table 1).
//   - Optimal: exact minimal segmentation under the same endpoint-anchored
//     semantics, via dynamic programming. The paper's implementation needs
//     O(n^2) memory; this one streams per-origin cones and needs O(n)
//     memory (time remains O(n^2) worst case), so it runs on much larger
//     samples than the paper's 768 GB server allowed.
//   - OptimalFreeSlope: exact minimal segmentation when the slope may be
//     chosen freely (the line is anchored at the first point only). This
//     is a strictly more powerful segment family, so its count lower-bounds
//     Optimal. Included as an ablation of the paper's design choice.
//
// All treat duplicate keys the way a secondary (non-clustered) index needs:
// a run of equal keys is feasible inside a segment as long as the run's
// positional spread stays within the error threshold.
//
// A Segment is a pure value: it references its data only through
// (StartPos, Count) offsets, never through pointers, so the table pages
// built around segments are themselves shareable values. internal/core
// relies on that for its copy-on-write flush — a re-segmented region
// yields fresh Segment values while every untouched page (and the Segment
// inside it) is shared between the old and new tree states.
package segment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"fitingtree/internal/num"
)

// Segment is one linear piece of the key->position approximation.
//
// Predicted positions are relative to StartPos:
//
//	pred(k) = StartPos + (k - Start) * Slope
//
// and every covered element's true position deviates from pred by at most
// the error threshold used during segmentation.
type Segment[K num.Key] struct {
	Start    K       // first key covered by this segment
	StartPos int     // position of the first covered element in the source array
	Count    int     // number of elements covered (>= 1)
	Slope    float64 // positions per key unit; 0 for single-key segments
}

// Predict returns the (unclamped, real-valued) predicted position of k
// relative to the start of the segment's data, i.e. nominally in [0, Count).
func (s Segment[K]) Predict(k K) float64 {
	return (num.Approx(k) - num.Approx(s.Start)) * s.Slope
}

// Window returns the inclusive local-search window [lo, hi] of offsets
// inside the segment's data that must contain k if k is covered by the
// segment, for the given error threshold. The window is the interpolated
// position widened by the error bound and clamped to the segment.
func (s Segment[K]) Window(k K, err int) (lo, hi int) {
	p := s.Predict(k)
	lo = max(0, min(int(math.Floor(p))-err, s.Count-1))
	hi = max(0, min(int(math.Ceil(p))+err, s.Count-1))
	return lo, hi
}

// EndPos returns the position just past the last covered element.
func (s Segment[K]) EndPos() int { return s.StartPos + s.Count }

// cone tracks, per Algorithm 2, the range of end-point slopes that keep
// every absorbed point of a segment within the error threshold. The
// segment's line is anchored at the origin (x0, y0); a candidate end point
// is feasible iff the slope of origin->candidate lies inside [low, high].
type cone struct {
	x0, y0    float64
	low, high float64
	sxy, sxx  float64 // sums of dx*dy and dx*dx over the absorbed points
	narrowed  bool    // whether any dx > 0 point has been absorbed
}

func newCone(x0 float64, y0 int) cone {
	return cone{x0: x0, y0: float64(y0), low: 0, high: math.Inf(1)}
}

// endpointFeasible reports whether the segment could end at (x, y): the
// line from the origin through (x, y) must keep every previously
// constrained point within err, i.e. its slope must lie in the cone.
func (c *cone) endpointFeasible(x float64, y int, err float64) bool {
	dy := float64(y) - c.y0
	dx := x - c.x0
	if dx <= 0 {
		// Duplicate of the origin key (monotone input, so dx == 0). The
		// line always passes through the origin, so the prediction at this
		// x is exactly y0: feasible iff the positional spread fits.
		return dy <= err && c.low <= c.high
	}
	slope := dy / dx
	return slope >= c.low && slope <= c.high
}

// constrain narrows the cone with (x, y)'s +-err corridor (the constraint
// the point imposes on every later end point) and reports whether the cone
// is still non-empty.
func (c *cone) constrain(x float64, y int, err float64) bool {
	dy := float64(y) - c.y0
	dx := x - c.x0
	if dx <= 0 {
		// A duplicate of the origin predicts exactly y0; if its true
		// position is out of range, no end point can ever fix that.
		if dy > err {
			c.low, c.high = 1, 0 // empty
			return false
		}
		return true
	}
	if h := (dy + err) / dx; h < c.high {
		c.high = h
	}
	if l := (dy - err) / dx; l > c.low {
		c.low = l
	}
	return c.low <= c.high
}

// absorb is the greedy step of Algorithm 2: test (x, y) as the new end
// point and, if feasible, constrain the cone with it. On failure the cone
// is unchanged and the caller must start a new segment at (x, y).
func (c *cone) absorb(x float64, y int, err float64) bool {
	if !c.endpointFeasible(x, y, err) {
		return false
	}
	dx := x - c.x0
	c.constrain(x, y, err)
	if dx > 0 {
		c.sxy += dx * (float64(y) - c.y0)
		c.sxx += dx * dx
		c.narrowed = true
	}
	return true
}

// slope returns the segment's slope: the least-squares line through the
// origin over the absorbed points, clamped into the final cone — every
// slope in [low, high] keeps every absorbed point within the threshold, and
// this one sits near the middle of their deviations where the line to the
// last point sits on the cone's edge. 0 for a segment holding a single
// distinct key (duplicates of the origin all predict offset 0).
func (c *cone) slope() float64 {
	if !c.narrowed {
		return 0
	}
	s := c.sxy / c.sxx
	if s != s {
		s = c.low // the sums overflowed (float keys past 1e154): any slope in the cone serves
	}
	return min(max(s, c.low), c.high)
}

// approxBlock is how many keys the per-key loops project at a time
// (num.ApproxInto): large enough to amortize the projection's type switch
// to nothing, small enough for the block to live on the stack.
const approxBlock = 256

// minPart is the fewest keys a part of a parallel pass gets: ~0.3 ms of cone
// work, far more than starting a goroutine costs.
const minPart = 1 << 15

// Parts returns how many parts a parallel pass over n keys is split into:
// one per processor, each of at least minPart keys, and at least one.
func Parts(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/minPart)) }

// ForParts splits [0, n) into parts even ranges and calls fn(i, lo, hi) for
// range i, side by side, the caller's goroutine taking range 0; it returns
// once every call has. fn must not panic: on any goroutine but the caller's
// that kills the process.
func ForParts(parts, n int, fn func(i, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for i := 1; i < parts; i++ {
		go func() {
			defer wg.Done()
			fn(i, i*n/parts, (i+1)*n/parts)
		}()
	}
	fn(0, 0, n/parts)
	wg.Wait()
}

// ShrinkingCone partitions sorted keys into segments using the paper's
// greedy one-pass algorithm (Algorithm 2) with error threshold err.
// keys must be sorted ascending (duplicates allowed); err must be >= 1.
// The returned segments are disjoint, contiguous, and cover all of keys.
//
// The pass is spread over the processors: Parts(len(keys)) parts each start
// it at an even split point, and the stitch grows the chain one segment at a
// time until it lands on a start the next part found, then takes that part's
// segments. A segment depends only on its start and the keys after it, so the
// result is the serial pass's at any GOMAXPROCS.
func ShrinkingCone[K num.Key](keys []K, err int) []Segment[K] {
	return shrinkingCone(keys, err, Parts(len(keys)))
}

// ShrinkingConeSerial is ShrinkingCone on the caller's goroutine alone: the
// same segments, for a caller that must not take a second processor.
func ShrinkingConeSerial[K num.Key](keys []K, err int) []Segment[K] {
	return shrinkingCone(keys, err, 1)
}

func shrinkingCone[K num.Key](keys []K, err, parts int) []Segment[K] {
	if err < 1 {
		panic(fmt.Sprintf("segment: error threshold %d < 1", err))
	}
	if len(keys) == 0 {
		return nil
	}
	e := float64(err)
	if parts == 1 {
		// No fan-out for one part: a fold re-segments many small regions,
		// and it would cost each of them three allocations.
		segs, _, bad := greedyFrom(make([]Segment[K], 0, 16), keys, e, 0, len(keys))
		mustBeSorted(bad)
		return segs
	}
	type part struct {
		segs            []Segment[K]
		next, bad, stop int
	}
	ps := make([]part, parts)
	ForParts(parts, len(keys), func(i, lo, hi int) {
		p := &ps[i]
		p.segs, p.next, p.bad = greedyFrom(make([]Segment[K], 0, 16), keys, e, lo, hi)
		p.stop = hi
	})
	for _, p := range ps {
		// A part checks every key past its split point up to where it stops,
		// which is past the next split point unless it met an unsorted key, so
		// the first part to report one reports the first in the array.
		mustBeSorted(p.bad)
	}
	segs, pos := ps[0].segs, ps[0].next
	for _, p := range ps[1:] {
		for j := 0; pos < p.stop; {
			for j < len(p.segs) && p.segs[j].StartPos < pos {
				j++
			}
			if j < len(p.segs) && p.segs[j].StartPos == pos {
				segs, pos = append(segs, p.segs[j:]...), p.next
				break
			}
			segs, pos, _ = greedyFrom(segs, keys, e, pos, pos+1)
		}
	}
	return segs
}

// mustBeSorted panics naming bad as the first unsorted index, unless it is -1.
func mustBeSorted(bad int) {
	if bad >= 0 {
		panic(fmt.Sprintf("segment: keys not sorted at index %d", bad))
	}
}

// greedyFrom runs Algorithm 2 from position from, taken as a segment start,
// and appends every segment that starts in [from, stop); next is the start of
// the one after them. It runs on worker goroutines, where a panic would kill
// the process, so it returns the first unsorted index in bad, else -1.
func greedyFrom[K num.Key](segs []Segment[K], keys []K, e float64, from, stop int) (_ []Segment[K], next, bad int) {
	var buf [approxBlock]float64
	c := newCone(num.Approx(keys[from]), from)
	start := from
	for base := from + 1; base < len(keys); base += approxBlock {
		for j, x := range num.ApproxInto(buf[:], keys[base:min(base+approxBlock, len(keys))]) {
			i := base + j
			if keys[i] < keys[i-1] {
				return segs, i, i
			}
			if c.absorb(x, i, e) {
				continue
			}
			segs = append(segs, Segment[K]{
				Start:    keys[start],
				StartPos: start,
				Count:    i - start,
				Slope:    c.slope(),
			})
			if i >= stop {
				return segs, i, -1
			}
			start = i
			c = newCone(x, i)
		}
	}
	segs = append(segs, Segment[K]{
		Start:    keys[start],
		StartPos: start,
		Count:    len(keys) - start,
		Slope:    c.slope(),
	})
	return segs, len(keys), -1
}

// Fits reports whether the line anchored at start with the given slope
// predicts the position of every element of sorted keys within err — the
// guarantee ShrinkingCone's segments carry, tested for a model that is
// already known instead of searched for. A segment's validity is this
// bound, not the algorithm that found the slope, so a caller that has
// changed a segment's data a little can keep the segment, model and all,
// when Fits still holds. The arithmetic is Predict's and the tolerance
// Verify's (a slope clamped to the cone's edge reproduces its constraining
// point only up to rounding), so a lookup window of err around Predict
// rounded to nearest finds every key Fits accepted.
func Fits[K num.Key](keys []K, start K, slope float64, err int) bool {
	return FitsFrom(keys, 0, start, slope, err)
}

// FitsFrom is Fits for the elements at positions from and up only: the
// test of a caller that knows keys[:from] sit where the same model already
// accepted them.
func FitsFrom[K num.Key](keys []K, from int, start K, slope float64, err int) bool {
	_, _, ok := Residuals(keys, from, start, slope, err)
	return ok
}

// Residuals returns the least and the greatest residual (predicted minus
// true position, Fits's arithmetic) of the elements at positions from and
// up, and FitsFrom's verdict: false at the first element outside err.
func Residuals[K num.Key](keys []K, from int, start K, slope float64, err int) (lo, hi float64, ok bool) {
	x0 := num.Approx(start)
	e := float64(err) + epsilon
	lo, hi = math.Inf(1), math.Inf(-1)
	var buf [approxBlock]float64
	for base := from; base < len(keys); base += approxBlock {
		for j, x := range num.ApproxInto(buf[:], keys[base:min(base+approxBlock, len(keys))]) {
			d := float64((x-x0)*slope) - float64(base+j)
			if d > e || d < -e {
				return lo, hi, false
			}
			lo, hi = min(lo, d), max(hi, d)
		}
	}
	return lo, hi, true
}

func checkSorted[K num.Key](keys []K, err int) {
	if err < 1 {
		panic(fmt.Sprintf("segment: error threshold %d < 1", err))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			panic(fmt.Sprintf("segment: keys not sorted at index %d", i))
		}
	}
}

// OptimalCount returns the exact minimal number of segments (under the
// paper's endpoint-anchored semantics) that cover keys with error
// threshold err. Memory is O(n); time is O(n * L) where L is the longest
// stretch over which a per-origin cone stays non-empty, so it is meant for
// evaluation-sized samples (Table 1), not for index builds.
func OptimalCount[K num.Key](keys []K, err int) int {
	count, _ := optimalDP(keys, err, false)
	return count
}

// Optimal returns an exact minimal segmentation of keys under the same
// semantics as ShrinkingCone. Intended for evaluation and testing.
func Optimal[K num.Key](keys []K, err int) []Segment[K] {
	_, parents := optimalDP(keys, err, true)
	if parents == nil {
		return nil
	}
	var bounds []int
	for k := len(parents) - 1; k >= 0; k = parents[k] - 1 {
		bounds = append(bounds, parents[k])
	}
	segs := make([]Segment[K], 0, len(bounds))
	e := float64(err)
	for i := len(bounds) - 1; i >= 0; i-- {
		start := bounds[i]
		end := len(parents)
		if i > 0 {
			end = bounds[i-1]
		}
		segs = append(segs, buildSegment(keys, start, end, e))
	}
	return segs
}

// optimalDP runs the minimal-segmentation DP:
//
//	T[k] = 1 + min{ T[j-1] : segment [j..k] feasible }.
//
// Feasibility of [j..k] is "the line from point j through point k keeps
// every interior point within err", which the per-origin cone evaluates in
// O(1) per (j, k) pair. Because T is non-decreasing, the minimum is at the
// smallest feasible j; feasibility is not prefix-closed in k under
// endpoint anchoring, so every pair must be considered, but the scan for
// origin j stops as soon as its cone becomes empty (no later end point can
// ever be feasible then).
func optimalDP[K num.Key](keys []K, err int, withParents bool) (int, []int) {
	checkSorted(keys, err)
	n := len(keys)
	if n == 0 {
		return 0, nil
	}
	e := float64(err)
	const inf = math.MaxInt32
	// T[k] = minimal segments covering keys[0..k-1]; T[0] = 0.
	T := make([]int, n+1)
	for i := 1; i <= n; i++ {
		T[i] = inf
	}
	var parents []int
	if withParents {
		parents = make([]int, n)
	}
	for j := 0; j < n; j++ {
		if T[j] == inf {
			// Unreachable origins cannot occur ([k..k] is always feasible,
			// so T fills left to right), but guard anyway.
			continue
		}
		// Single-point segment [j..j].
		if T[j]+1 < T[j+1] {
			T[j+1] = T[j] + 1
			if withParents {
				parents[j] = j
			}
		}
		c := newCone(num.Approx(keys[j]), j)
		for k := j + 1; k < n; k++ {
			x := num.Approx(keys[k])
			// Endpoint feasibility is not prefix-closed in k (a later k
			// can re-enter the cone), so test every k; but every point,
			// feasible as an end or not, constrains later end points, and
			// once the cone is empty no end point can ever work again.
			if c.endpointFeasible(x, k, e) && T[j]+1 < T[k+1] {
				T[k+1] = T[j] + 1
				if withParents {
					parents[k] = j
				}
			}
			if !c.constrain(x, k, e) {
				break
			}
		}
	}
	return T[n], parents
}

// freeCone is the feasibility test when the segment's line is anchored at
// the origin but its slope may be chosen freely: a point fits iff some
// slope keeps every absorbed point within +-err. Feasibility under this
// semantics is prefix-closed in the end index, which OptimalFreeSlope
// exploits.
type freeCone struct {
	x0, y0    float64
	low, high float64
}

func newFreeCone(x0 float64, y0 int) freeCone {
	return freeCone{x0: x0, y0: float64(y0), low: 0, high: math.Inf(1)}
}

func (c *freeCone) absorb(x float64, y int, err float64) bool {
	dy := float64(y) - c.y0
	dx := x - c.x0
	if dx <= 0 {
		return dy <= err
	}
	if dy < c.low*dx-err || dy > c.high*dx+err {
		return false
	}
	if h := (dy + err) / dx; h < c.high {
		c.high = h
	}
	if l := (dy - err) / dx; l > c.low {
		c.low = l
	}
	return true
}

// freeReach returns the largest index r such that keys[j..r] admits some
// single origin-anchored line within err (free-slope semantics).
func freeReach[K num.Key](keys []K, j int, err float64) int {
	c := newFreeCone(num.Approx(keys[j]), j)
	r := j
	for i := j + 1; i < len(keys); i++ {
		if !c.absorb(num.Approx(keys[i]), i, err) {
			break
		}
		r = i
	}
	return r
}

// OptimalFreeSlope returns the exact minimal number of segments when each
// segment's slope may be chosen freely (line anchored at the first point
// only). This family subsumes the endpoint-anchored one, so:
//
//	OptimalFreeSlope <= OptimalCount <= len(ShrinkingCone).
//
// Under free-slope semantics feasibility is prefix-closed, so a monotone
// two-pointer over origins gives the exact DP answer in O(n) memory.
func OptimalFreeSlope[K num.Key](keys []K, err int) int {
	checkSorted(keys, err)
	n := len(keys)
	if n == 0 {
		return 0
	}
	e := float64(err)
	T := make([]int, n+1)
	j := 0
	rj := freeReach(keys, 0, e)
	for k := 0; k < n; k++ {
		for rj < k {
			j++
			rj = freeReach(keys, j, e)
		}
		T[k+1] = T[j] + 1
	}
	return T[n]
}

// buildSegment constructs the segment covering keys[start:end) under
// endpoint-anchored semantics: interior points constrain the cone and the
// final point must be a feasible end point. The slope is the line from the
// first to the last point (0 if the segment holds a single distinct key).
func buildSegment[K num.Key](keys []K, start, end int, err float64) Segment[K] {
	c := newCone(num.Approx(keys[start]), start)
	for i := start + 1; i < end-1; i++ {
		if !c.constrain(num.Approx(keys[i]), i, err) {
			panic(fmt.Sprintf("segment: internal error: optimal segment [%d,%d) cone empty at %d", start, end, i))
		}
	}
	slope := 0.0
	if end-1 > start {
		last := num.Approx(keys[end-1])
		if !c.endpointFeasible(last, end-1, err) {
			panic(fmt.Sprintf("segment: internal error: optimal segment [%d,%d) infeasible end", start, end))
		}
		if dx := last - num.Approx(keys[start]); dx > 0 {
			slope = float64(end-1-start) / dx
		}
	}
	return Segment[K]{Start: keys[start], StartPos: start, Count: end - start, Slope: slope}
}

// epsilon absorbs float rounding in error-bound verification.
const epsilon = 1e-6

// Verify checks that segs is a disjoint, contiguous, complete segmentation
// of keys and that every element's interpolated position is within err of
// its true position. It returns nil on success.
func Verify[K num.Key](keys []K, segs []Segment[K], err int) error {
	if len(keys) == 0 {
		if len(segs) != 0 {
			return fmt.Errorf("segment: %d segments over empty input", len(segs))
		}
		return nil
	}
	pos := 0
	for si, s := range segs {
		if s.StartPos != pos {
			return fmt.Errorf("segment %d: starts at %d, want %d", si, s.StartPos, pos)
		}
		if s.Count < 1 {
			return fmt.Errorf("segment %d: empty", si)
		}
		if s.Start != keys[pos] {
			return fmt.Errorf("segment %d: start key %v, want %v", si, s.Start, keys[pos])
		}
		for i := 0; i < s.Count; i++ {
			pred := float64(s.StartPos) + s.Predict(keys[pos+i])
			if math.Abs(pred-float64(pos+i)) > float64(err)+epsilon {
				return fmt.Errorf("segment %d: key %v at pos %d predicted %.3f, off by more than %d",
					si, keys[pos+i], pos+i, pred, err)
			}
		}
		pos += s.Count
	}
	if pos != len(keys) {
		return fmt.Errorf("segment: segments cover %d of %d elements", pos, len(keys))
	}
	return nil
}

// MaxSegmentsBound returns the paper's guarantee on the number of segments
// ShrinkingCone can produce: min(|distinct keys|/2, |D|/(err+1)), rounded
// up, and at least 1.
func MaxSegmentsBound(distinctKeys, totalElems, err int) int {
	a := (distinctKeys + 1) / 2
	b := (totalElems + err) / (err + 1)
	return max(1, min(a, b))
}

// Adversarial generates the Appendix A.3 input on which ShrinkingCone is
// arbitrarily worse than optimal: with error threshold err, greedy produces
// about rounds+2 segments while an optimal segmentation needs 2.
// It returns the key array (monotone non-decreasing, with duplicate runs).
func Adversarial(err, rounds int) []float64 {
	e := float64(err)
	var keys []float64
	// Step 1: three keys with unit position increases spaced err^2 apart.
	x := 0.0
	keys = append(keys, x)
	x += e * e
	keys = append(keys, x)
	x += e * e
	keys = append(keys, x)
	// Step 2: a key at +1/err repeated err+1 times, then a single key
	// +1/err after it; then per round, a repeated key err further out
	// followed by a single key 1/err after it.
	x += 1 / e
	for i := 0; i < err+1; i++ {
		keys = append(keys, x)
	}
	x += 1 / e
	keys = append(keys, x)
	for i := 0; i < rounds; i++ {
		x += e
		for j := 0; j < err+1; j++ {
			keys = append(keys, x)
		}
		x += 1 / e
		keys = append(keys, x)
	}
	// Step 3: closing key err^2 further out.
	x += e * e
	keys = append(keys, x)
	return keys
}
