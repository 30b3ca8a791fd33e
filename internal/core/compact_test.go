package core

import (
	"math/rand"
	"sort"
	"testing"
)

// TestCompactOpsSpill pins CompactOps' tombstone-spill arithmetic with
// hand-checked cases: upper-layer tombstones consume base survivors first
// and only the excess drops the lower layer's oldest adds, the beneath
// count is consulted only for ambiguous keys, and fully cancelled entries
// vanish from the output.
func TestCompactOpsSpill(t *testing.T) {
	count := func(n int) func(uint64, func(uint64) bool) {
		return func(k uint64, fn func(uint64) bool) {
			for i := 0; i < n; i++ {
				if !fn(0) {
					return
				}
			}
		}
	}
	type opcase struct {
		name         string
		lower, upper []MergeOp[uint64, uint64]
		base         int // base matches beneath the lower layer (all keys)
		want         []MergeOp[uint64, uint64]
	}
	cases := []opcase{
		{
			name:  "spill-into-lower-adds",
			lower: []MergeOp[uint64, uint64]{{Key: 7, Adds: []uint64{100, 101}, Dels: 1}},
			upper: []MergeOp[uint64, uint64]{{Key: 7, Dels: 3}},
			base:  2, // one base survivor beneath upper: consumed=1, excess=2
			want:  []MergeOp[uint64, uint64]{{Key: 7, Adds: []uint64{}, Dels: 2}},
		},
		{
			name:  "all-on-base",
			lower: []MergeOp[uint64, uint64]{{Key: 7, Adds: []uint64{100}, Dels: 1}},
			upper: []MergeOp[uint64, uint64]{{Key: 7, Dels: 2}},
			base:  5, // four base survivors: both upper tombstones consume base
			want:  []MergeOp[uint64, uint64]{{Key: 7, Adds: []uint64{100}, Dels: 3}},
		},
		{
			name:  "full-cancellation-drops-entry",
			lower: []MergeOp[uint64, uint64]{{Key: 7, Adds: []uint64{100}}},
			upper: []MergeOp[uint64, uint64]{{Key: 7, Dels: 1}},
			base:  0, // no base: the tombstone eats the pending add entirely
			want:  nil,
		},
		{
			name:  "disjoint-passthrough-and-append",
			lower: []MergeOp[uint64, uint64]{{Key: 3, Adds: []uint64{30}}, {Key: 7, Adds: []uint64{70}}},
			upper: []MergeOp[uint64, uint64]{{Key: 5, Dels: 1}, {Key: 7, Adds: []uint64{71}}},
			base:  1,
			want: []MergeOp[uint64, uint64]{
				{Key: 3, Adds: []uint64{30}},
				{Key: 5, Dels: 1},
				{Key: 7, Adds: []uint64{70, 71}},
			},
		},
	}
	for _, tc := range cases {
		got := CompactOps(tc.lower, tc.upper, count(tc.base))
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d ops, want %d (%v)", tc.name, len(got), len(tc.want), got)
		}
		for i, op := range got {
			w := tc.want[i]
			if op.Key != w.Key || op.Dels != w.Dels || len(op.Adds) != len(w.Adds) {
				t.Fatalf("%s: op %d = %+v, want %+v", tc.name, i, op, w)
			}
			for j := range w.Adds {
				if op.Adds[j] != w.Adds[j] {
					t.Fatalf("%s: op %d adds = %v, want %v", tc.name, i, op.Adds, w.Adds)
				}
			}
		}
	}

	// The beneath count is consulted only when upper tombstones could
	// spill into lower adds — never for add-only uppers or add-free
	// lowers, where the composition is pure arithmetic.
	calls := 0
	counting := func(k uint64, fn func(uint64) bool) { calls++ }
	CompactOps(
		[]MergeOp[uint64, uint64]{{Key: 1, Dels: 2}, {Key: 2, Adds: []uint64{20}}},
		[]MergeOp[uint64, uint64]{{Key: 1, Dels: 1}, {Key: 2, Adds: []uint64{21}}},
		counting,
	)
	if calls != 0 {
		t.Fatalf("countBeneath consulted %d times for unambiguous keys", calls)
	}
}

// compactGenOps builds a random valid delta layer against the given
// content stream: per-key tombstone counts never exceed the stream's live
// matches, the invariant the write path maintains for every layer.
func compactGenOps(rng *rand.Rand, stream []pair, maxKey uint64) []MergeOp[uint64, uint64] {
	opKeys := map[uint64]bool{}
	var ops []MergeOp[uint64, uint64]
	for len(ops) < 1+rng.Intn(40) {
		ok := uint64(rng.Intn(int(maxKey) + 10))
		if opKeys[ok] {
			continue
		}
		opKeys[ok] = true
		op := MergeOp[uint64, uint64]{Key: ok}
		for a := rng.Intn(3); a > 0; a-- {
			op.Adds = append(op.Adds, 3_000_000+rng.Uint64()%1_000_000)
		}
		live := 0
		for _, p := range stream {
			if p.k == ok {
				live++
			}
		}
		if live > 0 && rng.Intn(2) == 0 {
			op.Dels = 1 + rng.Intn(live)
		}
		if len(op.Adds) == 0 && op.Dels == 0 {
			op.Adds = []uint64{999}
		}
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

// TestCompactOpsRandomized cross-checks the two ways of folding a layer
// stack: MergeCOW(CompactOps(lower, upper)) must publish exactly the same
// content as the sequential MergeCOW(lower, upper), for layers generated
// with the write path's relativity rule (upper counts relative to the
// view after lower). It also pins MergeCOW against the sequential fold
// at depth three and its receiver-identity degenerate cases.
func TestCompactOpsRandomized(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testCompactOpsRandomized(t, ms.shift) })
	}
}

func testCompactOpsRandomized(t *testing.T, shift int64) {
	rng := rand.New(rand.NewSource(977 + shift))
	for trial := 0; trial < 30; trial++ {
		n := 200 + rng.Intn(1500)
		keys := make([]uint64, n)
		k := uint64(0)
		for i := range keys {
			if rng.Intn(3) > 0 {
				k += uint64(rng.Intn(4))
			}
			keys[i] = k
		}
		base := buildCOWBase(t, keys, Options{Error: 8 + rng.Intn(24), BufferSize: 4})
		before := contents(base)

		lower := compactGenOps(rng, before, k)
		middle := applyOpsModel(before, lower)
		upper := compactGenOps(rng, middle, k)
		want := contents(base.MergeCOW(lower, upper))

		compacted := CompactOps(lower, upper, base.Each)
		got := contents(base.MergeCOW(compacted))
		if len(got) != len(want) {
			t.Fatalf("trial %d: compacted fold %d elements, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d = %v, want %v", trial, i, got[i], want[i])
			}
		}

		// Depth-3 stack: MergeCOW must equal the sequential fold, and
		// compacting the bottom pair first must not change the outcome.
		top := compactGenOps(rng, applyOpsModel(middle, upper), k)
		wantN := contents(base.MergeCOW(lower).MergeCOW(upper).MergeCOW(top))
		gotN := contents(base.MergeCOW(lower, upper, top))
		gotC := contents(base.MergeCOW(compacted, top))
		if len(gotN) != len(wantN) || len(gotC) != len(wantN) {
			t.Fatalf("trial %d: depth-3 folds %d/%d elements, want %d", trial, len(gotN), len(gotC), len(wantN))
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("trial %d: MergeCOW element %d = %v, want %v", trial, i, gotN[i], wantN[i])
			}
			if gotC[i] != wantN[i] {
				t.Fatalf("trial %d: compact-then-fold element %d = %v, want %v", trial, i, gotC[i], wantN[i])
			}
		}
		if base.MergeCOW() != base || base.MergeCOW(nil, nil, nil) != base {
			t.Fatalf("trial %d: empty MergeCOW did not return the receiver", trial)
		}
	}
}
