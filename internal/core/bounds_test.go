package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// TestRefitBoundsContainResiduals drives random fold sequences — adds,
// counted and value tombstones, duplicates, numeric keys and string keys
// whose 8-byte projection collides — and checks after every fold that each
// page whose residual bounds are known brackets its exact residual range.
// Bounds a bound-only refit shifted are wider than a scan's; some must be
// seen, or the path went untested.
func TestRefitBoundsContainResiduals(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { testRefitBounds(t, func(k uint64) uint64 { return k * 3 }) })
	t.Run("string", func(t *testing.T) {
		testRefitBounds(t, func(k uint64) string { return fmt.Sprintf("k%07d%04d", k/10_000, k%10_000) })
	})
}

func testRefitBounds[K num.Key](t *testing.T, mk func(uint64) K) {
	rng := rand.New(rand.NewSource(31))
	known, conservative := 0, 0
	for round := 0; round < 20; round++ {
		n := 400 + rng.Intn(3000)
		maxKey := uint64(n * (1 + rng.Intn(4)))
		raw := make([]uint64, n)
		for i := range raw {
			raw[i] = rng.Uint64() % maxKey
		}
		slices.Sort(raw)
		stream := make([]pair, n)
		keys := make([]K, n)
		vals := make([]uint64, n)
		for i, k := range raw {
			stream[i], keys[i], vals[i] = pair{k, uint64(i)}, mk(k), uint64(i)
		}
		tr, err := BulkLoad(keys, vals, Options{Error: 8 << rng.Intn(4), BufferSize: 0})
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 20; batch++ {
			rawOps := genTombOps(rng, stream, maxKey)
			ops := make([]MergeOp[K, uint64], len(rawOps))
			for i, op := range rawOps {
				ops[i] = MergeOp[K, uint64]{Key: mk(op.Key), Adds: op.Adds, Dels: op.Dels, Tombs: op.Tombs}
			}
			tr = tr.MergeCOW(ops)
			stream = applyTombOpsModel(stream, rawOps)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("round %d batch %d: %v", round, batch, err)
			}
			for _, c := range tr.chunks {
				for _, p := range c.pages {
					if !p.fit.ok {
						continue
					}
					known++
					lo, hi, _ := segment.Residuals(p.keys, 0, p.start(), p.seg.Slope, math.MaxInt32)
					if lo < float64(p.fit.lo) || hi > float64(p.fit.hi) {
						t.Fatalf("round %d batch %d: page at %v has residuals [%g, %g], bounds [%d, %d]",
							round, batch, p.start(), lo, hi, p.fit.lo, p.fit.hi)
					}
					if boundsOf(lo, hi) != p.fit {
						conservative++
					}
				}
			}
		}
	}
	if known == 0 || conservative == 0 {
		t.Fatalf("%d pages with known bounds, %d of them shifted by a bound-only refit: a case went untested", known, conservative)
	}
}
