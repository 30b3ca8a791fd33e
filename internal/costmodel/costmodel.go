// Package costmodel implements the paper's Section 6 cost model: given an
// error threshold e it predicts a FITing-Tree's lookup latency and index
// size, so a DBA can derive the error threshold from either a latency SLA
// or a storage budget.
//
// The latency model (Section 6.1, Equation 1) charges one cache miss c per
// random access on the three lookup phases:
//
//	latency(e) = c * ( log_b(S_e)  +  log2(e)  +  log2(bu) )
//	                  tree search     segment       buffer
//
// The size model (Section 6.2, Equation 1) is deliberately pessimistic:
//
//	size(e) = f * S_e * log_b(S_e) * 16B  +  S_e * 24B
//	          inner tree bound               segment metadata
//
// S_e, the number of segments a dataset needs at error e, is data
// dependent; Learn samples it by segmenting the data at a few thresholds
// and the model log-log-interpolates between the samples (the paper's
// "learned for a specific dataset" option).
package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// The model's fixed parameters: every caller models the paper's setup.
const (
	// fanout is b, the inner B+ tree's fanout: btree.DefaultOrder, the
	// order of the trees the model is checked against.
	fanout = 16
	// fill is f, the inner tree's fill factor (the paper's example uses 0.5).
	fill = 0.5
	// bufferFrac is the insert-buffer fraction of the error threshold (0.5
	// matches the evaluation setup: buffer = e/2).
	bufferFrac = 0.5
)

// Model predicts lookup latency and index size per error threshold.
type Model struct {
	// C is the cost of a random memory access in nanoseconds (the paper
	// uses 50ns measured with a memory benchmark; see MeasureCacheMissNs).
	C float64

	// samples of (error, segments), ascending by error.
	errs []int
	segs []int
}

// Learn builds a model for a dataset by segmenting it at each error in
// errs (which must be ascending, >= 1), charging c nanoseconds per random
// access.
func Learn[K num.Key](keys []K, errs []int, c float64) (*Model, error) {
	if len(errs) == 0 {
		return nil, fmt.Errorf("costmodel: no error thresholds to sample")
	}
	if !sort.IntsAreSorted(errs) {
		return nil, fmt.Errorf("costmodel: error thresholds must be ascending")
	}
	if c <= 0 {
		return nil, fmt.Errorf("costmodel: invalid cache-miss cost c=%f", c)
	}
	m := &Model{C: c}
	for _, e := range errs {
		if e < 1 {
			return nil, fmt.Errorf("costmodel: error threshold %d < 1", e)
		}
		segErr := e - int(float64(e)*bufferFrac)
		if segErr < 1 {
			segErr = 1
		}
		m.errs = append(m.errs, e)
		m.segs = append(m.segs, len(segment.ShrinkingCone(keys, segErr)))
	}
	return m, nil
}

// Segments predicts S_e for an arbitrary error threshold by log-log
// interpolation between the learned samples (clamped at the ends).
func (m *Model) Segments(e int) float64 {
	if e < 1 {
		e = 1
	}
	i := sort.SearchInts(m.errs, e)
	if i < len(m.errs) && m.errs[i] == e {
		return float64(m.segs[i])
	}
	if i == 0 {
		return float64(m.segs[0])
	}
	if i == len(m.errs) {
		return float64(m.segs[len(m.segs)-1])
	}
	x0, x1 := math.Log(float64(m.errs[i-1])), math.Log(float64(m.errs[i]))
	y0, y1 := math.Log(float64(m.segs[i-1])+1), math.Log(float64(m.segs[i])+1)
	t := (math.Log(float64(e)) - x0) / (x1 - x0)
	return math.Exp(y0+t*(y1-y0)) - 1
}

// Latency predicts the lookup latency in nanoseconds for error threshold e
// (Section 6.1 Equation 1).
func (m *Model) Latency(e int) float64 {
	se := math.Max(1, m.Segments(e))
	tree := math.Log(se) / math.Log(fanout) // log_b(S_e)
	seg := math.Log2(math.Max(2, float64(e)))
	buf := 0.0
	if bu := float64(e) * bufferFrac; bu >= 2 { // the modeled buffer's capacity
		buf = math.Log2(bu)
	}
	return m.C * (tree + seg + buf)
}

// Size predicts the index size in bytes for error threshold e (Section 6.2
// Equation 1): a pessimistic bound on the inner tree plus 24 bytes of
// metadata per segment.
func (m *Model) Size(e int) int64 {
	se := math.Max(1, m.Segments(e))
	logb := math.Log(se) / math.Log(fanout)
	if logb < 1 {
		// Even a single-level tree stores each entry once.
		logb = 1
	}
	tree := fill * se * logb * 16
	return int64(tree + se*24)
}

// PickForLatency returns the error threshold among candidates with the
// smallest predicted index size whose predicted latency satisfies
// maxLatencyNs (Section 6.1 Equation 2). ok is false if no candidate
// qualifies.
func (m *Model) PickForLatency(maxLatencyNs float64, candidates []int) (e int, ok bool) {
	bestSize := int64(math.MaxInt64)
	for _, c := range candidates {
		if m.Latency(c) > maxLatencyNs {
			continue
		}
		if s := m.Size(c); s < bestSize {
			bestSize, e, ok = s, c, true
		}
	}
	return e, ok
}

// PickForSpace returns the error threshold among candidates with the
// smallest predicted latency whose predicted size fits budgetBytes
// (Section 6.2 Equation 2). ok is false if no candidate qualifies.
func (m *Model) PickForSpace(budgetBytes int64, candidates []int) (e int, ok bool) {
	bestLat := math.Inf(1)
	for _, c := range candidates {
		if m.Size(c) > budgetBytes {
			continue
		}
		if l := m.Latency(c); l < bestLat {
			bestLat, e, ok = l, c, true
		}
	}
	return e, ok
}

// cacheMiss memoizes the pointer-chase measurement process-wide: the cost
// of a random access is a property of the host, not of any one tree, and
// the chase itself walks a 64MB buffer for about a hundred milliseconds —
// far too expensive to repeat per Tune call.
// ns <= 0 means "not yet measured".
var cacheMiss struct {
	mu sync.Mutex
	ns float64
}

// CacheMissNs returns the host's measured random-access cost in
// nanoseconds, running MeasureCacheMissNs on first use and caching the
// result for the life of the process. Callers that need a fixed cost pass
// their own instead (TuneRequest.CacheMissNs).
func CacheMissNs() float64 {
	cacheMiss.mu.Lock()
	defer cacheMiss.mu.Unlock()
	if cacheMiss.ns <= 0 {
		cacheMiss.ns = MeasureCacheMissNs(64<<20, 1_000_000)
	}
	return cacheMiss.ns
}

// MeasureCacheMissNs estimates the cost c of a random memory access by
// timing a dependent pointer chase through a buffer much larger than the
// CPU caches. This is the same methodology the paper uses to pick c = 50ns
// for its hardware.
func MeasureCacheMissNs(bufBytes int, steps int) float64 {
	n := bufBytes / 8
	if n < 1024 {
		n = 1024
	}
	next := make([]int64, n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	// Build one random cycle so every load depends on the previous one.
	for i := 0; i < n-1; i++ {
		next[perm[i]] = int64(perm[i+1])
	}
	next[perm[n-1]] = int64(perm[0])
	idx := int64(perm[0])
	// Warm-up.
	for i := 0; i < n/16; i++ {
		idx = next[idx]
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		idx = next[idx]
	}
	elapsed := time.Since(start)
	if idx == -1 { // defeat dead-code elimination; never true
		panic("unreachable")
	}
	return float64(elapsed.Nanoseconds()) / float64(steps)
}
