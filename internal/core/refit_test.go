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
	if n := tr.NumPages(); n != 1 {
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
	if p == old || p.seg.Start != old.seg.Start || p.seg.Slope != old.seg.Slope || len(p.keys) != len(keys)+2 {
		t.Fatalf("refit page: start %d slope %g with %d keys", p.seg.Start, p.seg.Slope, len(p.keys))
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
// fold — duplicates, counted and value tombstones, an op below the chain's
// first key, numeric keys and string keys whose 8-byte projection collides
// — and checks after every batch: invariants hold (every page within the
// tree's bound), content matches the reference model, no dirty region comes
// out as more pages than ShrinkingCone alone makes of the same merged run,
// and the fold kept exactly the pages a reference that runs the full Fits
// over every merged run keeps (refitReference) — the suffix check the fold
// really runs decides every region the same way.
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
			if min := stream[0].k; min > 0 && rawOps[0].Key >= min {
				// An op before the first page's first key: nothing of that
				// page keeps its position.
				rawOps = append([]MergeOp[uint64, uint64]{{Key: min - 1, Adds: []uint64{7}}}, rawOps...)
			}
			ops := convert(rawOps)
			want := tr.Counters().Refits + refitReference(t, tr, ops)
			for _, iv := range tr.dirtyIntervals(ops) {
				rops := ops[iv.opLo:iv.opHi]
				var s regionScratch[K, uint64]
				pages, _ := tr.rebuildRegion(iv, rops, &s, &Counters{})
				if cone := len(segment.ShrinkingCone(s.keys, opts.segError())); len(pages) > cone {
					t.Fatalf("round %d batch %d: region rebuilt as %d pages, ShrinkingCone makes %d", round, batch, len(pages), cone)
				}
			}
			tr = tr.MergeCOW(ops)
			stream = applyTombOpsModel(stream, rawOps)
			check(fmt.Sprintf("batch %d", batch))
			if got := tr.Counters().Refits; got != want {
				t.Fatalf("round %d batch %d: %d refits, the full-check reference keeps %d", round, batch, got, want)
			}
		}
		refits += tr.Counters().Refits
	}
	if refits == 0 {
		t.Fatal("no batch kept a page by refit: the rule went untested")
	}
}

// refitReference returns how many dirty regions of ops a fold of tr must
// keep as one page under the old model, decided the slow way: the full Fits
// over every merged run that replaces one page. Where the fold is entitled
// to check a suffix only — the page has neither insert buffer nor in-place
// deletes — it also requires the run's head to be the old page's, unmoved,
// and the suffix check to agree.
func refitReference[K num.Key](t *testing.T, tr *Tree[K, uint64], ops []MergeOp[K, uint64]) int {
	t.Helper()
	keep := 0
	for _, iv := range tr.dirtyIntervals(ops) {
		if iv.loCI != iv.hiCI || iv.loPI != iv.hiPI {
			continue
		}
		only := tr.chunks[iv.loCI].pages[iv.loPI]
		rops := ops[iv.opLo:iv.opHi]
		var s regionScratch[K, uint64]
		tr.mergeRegion(iv, rops, &s)
		if len(s.keys) == 0 {
			continue
		}
		segErr := tr.opts.segError()
		full := only.start() <= s.keys[0] &&
			segment.Fits(s.keys, only.start(), only.seg.Slope, segErr)
		if full {
			keep++
		}
		if len(only.bufKeys) > 0 || only.deletes > 0 {
			continue
		}
		moved, _ := findKey(only.keys, rops[0].Key)
		if !slices.Equal(s.keys[:moved], only.keys[:moved]) || !slices.Equal(s.vals[:moved], only.vals[:moved]) {
			t.Fatalf("page at %v: the run's first %d elements are not the old page's", only.start(), moved)
		}
		suffix := only.start() <= s.keys[0] &&
			segment.FitsFrom(s.keys, moved, only.start(), only.seg.Slope, segErr)
		if suffix != full {
			t.Fatalf("page at %v: suffix check from %d says %v, full check %v", only.start(), moved, suffix, full)
		}
	}
	return keep
}

// TestRefitChecksTouchedPagesInFull covers the two pages a fold must not
// check by suffix: one with an insert buffer (the merged run interleaves
// buffer and data, so no prefix keeps its place) and one with in-place
// deletes (its keys were accepted under a window widened by them, which
// the rebuilt page no longer has). A bare tree is edited in place until
// most pages carry one or the other, then folded: invariants, content and
// the full-check reference's refit count must hold.
func TestRefitChecksTouchedPagesInFull(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	buffered, eroded, refits := 0, 0, 0
	for round := 0; round < 30; round++ {
		n := 2000 + rng.Intn(4000)
		maxKey := uint64(n * (2 + rng.Intn(4)))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % maxKey
		}
		slices.Sort(keys)
		tr := buildCOWBase(t, keys, Options{Error: 16 << rng.Intn(3), BufferSize: 12})
		for i := 0; i < n/8; i++ {
			if rng.Intn(2) == 0 {
				tr.Insert(rng.Uint64()%maxKey, 5_000_000+uint64(i))
			} else {
				tr.Delete(keys[rng.Intn(n)])
			}
		}
		for _, c := range tr.chunks {
			for _, p := range c.pages {
				if len(p.bufKeys) > 0 {
					buffered++
				}
				if p.deletes > 0 {
					eroded++
				}
			}
		}
		stream := contents(tr)
		ops := genTombOps(rng, stream, maxKey)
		want := tr.Counters().Refits + refitReference(t, tr, ops)
		merged := tr.MergeCOW(ops)
		if err := merged.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, model := contents(merged), applyTombOpsModel(stream, ops); !slices.Equal(got, model) {
			t.Fatalf("round %d: folded content differs from the model (%d vs %d elements)", round, len(got), len(model))
		}
		if got := merged.Counters().Refits; got != want {
			t.Fatalf("round %d: %d refits, the full-check reference keeps %d", round, got, want)
		}
		refits += merged.Counters().Refits
	}
	if buffered == 0 || eroded == 0 || refits == 0 {
		t.Fatalf("%d buffered pages, %d with in-place deletes, %d refits: a case went untested", buffered, eroded, refits)
	}
}
