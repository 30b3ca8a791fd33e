package costmodel

import (
	"testing"

	"fitingtree/internal/btree"
	"fitingtree/internal/workload"
)

func learned(t *testing.T) *Model {
	t.Helper()
	keys := workload.Weblogs(200_000, 1)
	m, err := Learn(keys, []int{10, 32, 100, 316, 1000, 3162, 10000}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fromSamples builds a model over given (error, segments) samples,
// ascending by error, where Learn would segment a dataset for them.
func fromSamples(errs, segs []int, c float64) *Model {
	return &Model{C: c, errs: errs, segs: segs}
}

// TestFanoutIsBTreeOrder pins the modeled inner-tree fanout to the order
// of the B+ trees the model's predictions are checked against.
func TestFanoutIsBTreeOrder(t *testing.T) {
	if fanout != btree.DefaultOrder {
		t.Fatalf("modeled fanout %d, B+ tree order %d", fanout, btree.DefaultOrder)
	}
}

func TestLearnValidation(t *testing.T) {
	keys := []uint64{1, 2, 3}
	if _, err := Learn(keys, nil, 50); err == nil {
		t.Fatal("accepted empty thresholds")
	}
	if _, err := Learn(keys, []int{100, 10}, 50); err == nil {
		t.Fatal("accepted descending thresholds")
	}
	if _, err := Learn(keys, []int{0}, 50); err == nil {
		t.Fatal("accepted threshold 0")
	}
	if _, err := Learn(keys, []int{10}, -1); err == nil {
		t.Fatal("accepted negative c")
	}
}

func TestSegmentsMonotoneNonIncreasing(t *testing.T) {
	m := learned(t)
	prev := m.Segments(1)
	for _, e := range []int{10, 50, 100, 500, 1000, 5000, 10000, 50000} {
		cur := m.Segments(e)
		if cur > prev+1e-9 {
			t.Fatalf("Segments(%d) = %f increased from %f", e, cur, prev)
		}
		prev = cur
	}
}

func TestSegmentsInterpolatesExactSamples(t *testing.T) {
	m := fromSamples([]int{10, 100}, []int{5000, 300}, 50)
	if got := m.Segments(10); got != 5000 {
		t.Fatalf("Segments(10) = %f", got)
	}
	if got := m.Segments(100); got != 300 {
		t.Fatalf("Segments(100) = %f", got)
	}
	mid := m.Segments(32)
	if mid <= 300 || mid >= 5000 {
		t.Fatalf("Segments(32) = %f not between samples", mid)
	}
	// Clamped extrapolation.
	if got := m.Segments(1); got != 5000 {
		t.Fatalf("Segments(1) = %f, want clamp", got)
	}
	if got := m.Segments(10_000); got != 300 {
		t.Fatalf("Segments(10000) = %f, want clamp", got)
	}
}

func TestSizeShrinksWithError(t *testing.T) {
	m := learned(t)
	if m.Size(10) <= m.Size(1000) {
		t.Fatalf("Size(10)=%d should exceed Size(1000)=%d", m.Size(10), m.Size(1000))
	}
	if m.Size(10000) < 24 {
		t.Fatalf("Size(10000)=%d below one segment's metadata", m.Size(10000))
	}
}

func TestPickForLatency(t *testing.T) {
	m := learned(t)
	candidates := []int{10, 100, 1000, 10000}
	// A generous SLA admits everything: the pick must be the smallest
	// index among candidates (largest feasible error's size).
	e, ok := m.PickForLatency(1e9, candidates)
	if !ok {
		t.Fatal("no pick under generous SLA")
	}
	for _, c := range candidates {
		if m.Size(c) < m.Size(e) {
			t.Fatalf("pick %d has size %d but %d is smaller", e, m.Size(e), m.Size(c))
		}
	}
	// An impossible SLA yields no pick.
	if _, ok := m.PickForLatency(0.001, candidates); ok {
		t.Fatal("impossible SLA satisfied")
	}
	// A middling SLA must respect the constraint.
	sla := m.Latency(100)
	e, ok = m.PickForLatency(sla, candidates)
	if !ok || m.Latency(e) > sla {
		t.Fatalf("pick %d violates SLA: %f > %f", e, m.Latency(e), sla)
	}
}

func TestPickForSpace(t *testing.T) {
	m := learned(t)
	candidates := []int{10, 100, 1000, 10000}
	// A huge budget admits everything: the pick is the fastest.
	e, ok := m.PickForSpace(1<<40, candidates)
	if !ok {
		t.Fatal("no pick under huge budget")
	}
	for _, c := range candidates {
		if m.Latency(c) < m.Latency(e) {
			t.Fatalf("pick %d is slower than candidate %d", e, c)
		}
	}
	// A tiny budget yields no pick.
	if _, ok := m.PickForSpace(1, candidates); ok {
		t.Fatal("1-byte budget satisfied")
	}
	// A middling budget respects the constraint.
	budget := m.Size(1000)
	e, ok = m.PickForSpace(budget, candidates)
	if !ok || m.Size(e) > budget {
		t.Fatalf("pick %d violates budget: %d > %d", e, m.Size(e), budget)
	}
}

func TestLatencyIncludesAllPhases(t *testing.T) {
	m := fromSamples([]int{10, 1000}, []int{100_000, 1000}, 100)
	// With c=100, e=1000: tree = log_16(1000) ~ 2.49, segment = log2(1000)
	// ~ 9.97, buffer = log2(500) ~ 8.97 -> ~2140ns.
	got := m.Latency(1000)
	if got < 1500 || got > 3000 {
		t.Fatalf("Latency(1000) = %f, expected ~2100", got)
	}
}

func TestMeasureCacheMissNs(t *testing.T) {
	c := MeasureCacheMissNs(1<<22, 200_000) // 4MB buffer keeps the test fast
	if c <= 0 || c > 10_000 {
		t.Fatalf("implausible cache miss estimate: %f ns", c)
	}
}
