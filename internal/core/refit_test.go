package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// TestRefitKeepsOrSplits pins the refit rule on a page whose model is
// known: an insert the old line still predicts keeps the page whole under
// the old start and slope (counted in Refits and in PagesMade), an insert
// cluster that breaks the bound re-segments.
func TestRefitKeepsOrSplits(t *testing.T) {
	keys := make([]uint64, 4000)
	for i := range keys {
		keys[i] = uint64(i) * 10 // one straight line: one page
	}
	tr := buildCOWBase(t, keys, Options{Error: 16, BufferSize: 0})
	if n := tr.pageCount(); n != 1 {
		t.Fatalf("fixture has %d pages, want 1", n)
	}
	old := tr.chunks[0].pages[0]

	kept := tr.MergeCOW([]MergeOp[uint64, uint64]{
		{Key: 5, Adds: []uint64{1}}, {Key: 20_005, Adds: []uint64{2, 3}}, {Key: 39_000, Dels: 1},
	})
	if err := kept.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := kept.Counters()
	if c.Refits != 1 || c.PagesMade != 1 || c.Merges != 1 {
		t.Fatalf("counters after a fitting merge: %+v, want one merge, one page, one refit", c)
	}
	p := kept.chunks[0].pages[0]
	if p == old || p.seg.Start != old.seg.Start || p.seg.Slope != old.seg.Slope || p.werr != old.werr || len(p.keys) != len(keys)+2 {
		t.Fatalf("refit page: start %d slope %g werr %d with %d keys", p.seg.Start, p.seg.Slope, p.werr, len(p.keys))
	}

	// 100 keys where the line expects 1: positions after them are off by ~99.
	dense := make([]MergeOp[uint64, uint64], 0, 9)
	for k := uint64(20_001); k < 20_010; k++ {
		dense = append(dense, MergeOp[uint64, uint64]{Key: k, Adds: make([]uint64, 11)})
	}
	split := tr.MergeCOW(dense)
	if err := split.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c := split.Counters(); c.Refits != 0 || c.PagesMade < 2 {
		t.Fatalf("counters after a bound-breaking merge: %+v, want a re-segmentation", c)
	}
}

// TestRefitRandomized drives randomized pages × op batches through the
// fold — duplicates, counted and value tombstones, numeric keys and string
// keys whose 8-byte projection collides — and checks after every batch:
// invariants hold (every page within its own bound), content matches the
// reference model, and no dirty region comes out as more pages than
// ShrinkingCone alone makes of the same merged run. Then a plan retargets
// the upper half of the key space to another ε: regions there must
// re-segment under the new bound, never refit.
func TestRefitRandomized(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { testRefitRandomized(t, func(k uint64) uint64 { return k * 3 }) })
	// The first 8 bytes are shared by 10 000 consecutive keys, so Approx is
	// constant across whole pages while the order is not.
	t.Run("string", func(t *testing.T) {
		testRefitRandomized(t, func(k uint64) string { return fmt.Sprintf("k%07d%04d", k/10_000, k%10_000) })
	})
}

func testRefitRandomized[K num.Key](t *testing.T, mk func(uint64) K) {
	rng := rand.New(rand.NewSource(23))
	refits := 0
	for round := 0; round < 25; round++ {
		n := 400 + rng.Intn(4000)
		maxKey := uint64(n * (1 + rng.Intn(6)))
		raw := make([]uint64, n)
		for i := range raw {
			raw[i] = rng.Uint64() % maxKey
		}
		slices.Sort(raw)
		stream := make([]pair, n)
		keys := make([]K, n)
		vals := make([]uint64, n)
		for i, k := range raw {
			stream[i] = pair{k, uint64(i)}
			keys[i], vals[i] = mk(k), uint64(i)
		}
		opts := Options{Error: 8 << rng.Intn(4), BufferSize: 0}
		tr, err := BulkLoad(keys, vals, opts)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string) {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("round %d %s: %v", round, what, err)
			}
			i := 0
			tr.Ascend(func(k K, v uint64) bool {
				if i >= len(stream) || k != mk(stream[i].k) || v != stream[i].v {
					t.Fatalf("round %d %s: element %d = (%v,%d), model has %d elements", round, what, i, k, v, len(stream))
				}
				i++
				return true
			})
			if i != len(stream) {
				t.Fatalf("round %d %s: %d elements, model %d", round, what, i, len(stream))
			}
		}
		convert := func(raw []MergeOp[uint64, uint64]) []MergeOp[K, uint64] {
			ops := make([]MergeOp[K, uint64], len(raw))
			for i, op := range raw {
				ops[i] = MergeOp[K, uint64]{Key: mk(op.Key), Adds: op.Adds, Dels: op.Dels, Tombs: op.Tombs}
			}
			return ops
		}
		for batch := 0; batch < 6; batch++ {
			rawOps := genTombOps(rng, stream, maxKey)
			ops := convert(rawOps)
			for _, iv := range tr.dirtyIntervals(ops) {
				rops := ops[iv.opLo:iv.opHi]
				run, _, _ := tr.mergeRegion(iv, rops)
				pages, _ := tr.rebuildRegion(iv, rops, &Counters{})
				if cone := len(segment.ShrinkingCone(run, opts.segError())); len(pages) > cone {
					t.Fatalf("round %d batch %d: region rebuilt as %d pages, ShrinkingCone makes %d", round, batch, len(pages), cone)
				}
			}
			tr = tr.MergeCOW(ops)
			stream = applyTombOpsModel(stream, rawOps)
			check(fmt.Sprintf("batch %d", batch))
		}
		refits += tr.Counters().Refits

		// Retarget the upper half: a page there has werr != the target.
		mid := stream[len(stream)/2].k
		target := 2 * opts.Error
		tr.tune.plan.Store(&regionPlan[K]{targets: []RegionTarget[K]{
			{Start: tr.chunks[0].start(), RegionStat: RegionStat{Epsilon: opts.Error, ChunkTarget: chunkTarget}},
			{Start: mk(mid), RegionStat: RegionStat{Epsilon: target, ChunkTarget: chunkTarget}},
		}})
		var upper []pair
		for _, p := range stream {
			if p.k >= mid {
				upper = append(upper, p)
			}
		}
		var rawOps []MergeOp[uint64, uint64]
		for _, op := range genTombOps(rng, upper, maxKey) {
			if op.Key >= mid {
				rawOps = append(rawOps, op)
			}
		}
		before := map[*page[K, uint64]]bool{}
		for _, c := range tr.chunks {
			for _, p := range c.pages {
				before[p] = true
			}
		}
		was := tr.Counters().Refits
		tr = tr.MergeCOW(convert(rawOps))
		stream = applyTombOpsModel(stream, rawOps)
		check("retuned batch")
		if len(rawOps) > 0 && tr.Counters().Refits != was {
			t.Fatalf("round %d: %d refits in a region retuned to another bound", round, tr.Counters().Refits-was)
		}
		for _, c := range tr.chunks {
			for _, p := range c.pages {
				if !before[p] && p.firstKey() >= mk(mid) && p.werr != target {
					t.Fatalf("round %d: page at %v rebuilt under bound %d in a region retuned to %d", round, p.start(), p.werr, target)
				}
			}
		}
	}
	if refits == 0 {
		t.Fatal("no batch kept a page by refit: the rule went untested")
	}
}
