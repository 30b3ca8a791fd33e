package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"fitingtree/internal/segment"
)

// looseTree assembles the chunks of a tree bulk-loaded under 4× the bound
// of opts under opts itself: the shape of a store whose pages were written
// under a looser bound than the one it now opens with. It returns the
// assembled tree with its content and the excess bound summed over pages.
func looseTree(t *testing.T, opts Options) (*Tree[int, int], []pair, int) {
	t.Helper()
	keys := jaggedKeys(30_000)
	vals := make([]int, len(keys))
	want := make([]pair, len(keys))
	for i, k := range keys {
		vals[i] = i
		want[i] = pair{uint64(k), uint64(i)}
	}
	loose, err := BulkLoad(keys, vals, Options{Error: 4 * opts.Error, BufferSize: opts.BufferSize})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := AssembleChunks(snapAll(loose), opts)
	if err != nil {
		t.Fatal(err)
	}
	excess := loose.NumPages() * (loose.opts.segError() - tr.opts.segError())
	return tr, want, excess
}

// intContents returns tr's elements in scan order.
func intContents(tr *Tree[int, int]) []pair {
	var out []pair
	tr.Ascend(func(k, v int) bool {
		out = append(out, pair{uint64(k), uint64(v)})
		return true
	})
	return out
}

// TestWErrLooserPagesAbsorbed: pages recorded under a looser bound than
// the tree's open with their models unchanged and the excess added to their
// deletes, so the tree is valid and holds every element; a fold that
// touches every page then rebuilds each one at the tree's bound with no
// widening left.
func TestWErrLooserPagesAbsorbed(t *testing.T) {
	opts := Options{Error: 16, BufferSize: 0}
	tr, want, excess := looseTree(t, opts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := intContents(tr); !slices.Equal(got, want) {
		t.Fatalf("assembled content differs: %d elements, want %d", len(got), len(want))
	}
	if d := tr.Stats().Deletes; d != excess || excess == 0 {
		t.Fatalf("Stats().Deletes = %d, want the summed excess %d", d, excess)
	}

	// One add at every page's start: every page is in a dirty region.
	var ops []MergeOp[int, int]
	before := map[uint64]bool{}
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			before[p.id] = true
			if n := len(ops); n == 0 || ops[n-1].Key != p.start() {
				ops = append(ops, MergeOp[int, int]{Key: p.start(), Adds: []int{-1}})
				want = append(want, pair{uint64(p.start()), math.MaxUint64})
			}
		}
	}
	folded := tr.MergeCOW(ops)
	if err := folded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Adds land after the base matches of their key.
	slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	if got := intContents(folded); !slices.Equal(got, want) {
		t.Fatalf("folded content differs: %d elements, want %d", len(got), len(want))
	}
	for _, c := range folded.chunks {
		for _, p := range c.pages {
			if before[p.id] {
				t.Fatalf("page at %d was not rebuilt by a fold that touched it", p.start())
			}
			if p.deletes != 0 {
				t.Fatalf("rebuilt page at %d carries %d of widening", p.start(), p.deletes)
			}
		}
	}
	t.Logf("%d loose pages with %d of widening became %d pages (%d refits)",
		tr.NumPages(), excess, folded.NumPages(), folded.Counters().Refits)
}

// TestWErrLegacySnapshotFallsBack: a page recorded with WErr 0 (snapshots
// taken before the field existed) or with a bound tighter than the tree's
// opens under the tree's bound unchanged; a negative WErr is corruption.
func TestWErrLegacySnapshotFallsBack(t *testing.T) {
	tr, _ := buildJagged(t, 30_000)
	want := snapAll(tr)
	for _, werr := range []int{0, 1, tr.opts.segError() / 2, tr.opts.segError()} {
		snaps := snapAll(tr)
		for ci := range snaps {
			snaps[ci].Pages = slices.Clone(snaps[ci].Pages)
			for pi := range snaps[ci].Pages {
				snaps[ci].Pages[pi].WErr = werr
			}
		}
		re, err := AssembleChunks(snaps, tr.Options())
		if err != nil {
			t.Fatal(err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("WErr %d: %v", werr, err)
		}
		for ci, snap := range snapAll(re) {
			if !snapsEqual(snap, want[ci]) {
				t.Fatalf("WErr %d: chunk %d reassembled differently", werr, ci)
			}
		}
	}
	snaps := snapAll(tr)
	snaps[0].Pages[0].WErr = -1
	if _, err := AssembleChunks(snaps, tr.Options()); err == nil {
		t.Fatal("negative WErr assembled without error")
	}
}

// TestWErrPersistsThroughAssemble: every page is written with the tree's
// bound, and what assembly absorbed from a looser one — the widened window,
// carried as deletes — survives the next snapshot, so checkpointing and
// reopening a tree reproduces it exactly.
func TestWErrPersistsThroughAssemble(t *testing.T) {
	tr, keys := buildJagged(t, 30_000)
	for i := 0; i < 300; i++ {
		tr.Insert(keys[i*7]+1, -i)
		tr.Delete(keys[i*11])
	}
	loose, _, _ := looseTree(t, tr.Options())
	for _, src := range []*Tree[int, int]{tr, loose} {
		snaps := snapAll(src)
		for _, snap := range snaps {
			for _, p := range snap.Pages {
				if p.WErr != src.opts.segError() {
					t.Fatalf("page at %d written with WErr %d, the tree's bound is %d", p.Seg.Start, p.WErr, src.opts.segError())
				}
			}
		}
		re, err := AssembleChunks(snaps, src.Options())
		if err != nil {
			t.Fatal(err)
		}
		if re.Stats().Deletes != src.Stats().Deletes || re.Len() != src.Len() {
			t.Fatalf("reassembled %d elements with %d deletes, want %d with %d",
				re.Len(), re.Stats().Deletes, src.Len(), src.Stats().Deletes)
		}
		for ci, snap := range snapAll(re) {
			if !snapsEqual(snap, snaps[ci]) {
				t.Fatalf("chunk %d reassembled differently", ci)
			}
		}
	}
}

// TestSnapCodecRoundTripsWErr: the WErr word stays in the chunk format, so
// the codec carries any recorded value — 0, tighter, equal or looser than a
// tree's bound — through unchanged.
func TestSnapCodecRoundTripsWErr(t *testing.T) {
	codec := NewSnapCodec[int, int]()
	for _, werr := range []int{0, 1, 16, 96, math.MaxUint32} {
		snap := ChunkSnap[int, int]{Pages: []PageSnap[int, int]{{
			Seg:  segment.Segment[int]{Start: 10, Count: 3, Slope: 0.5},
			Keys: []int{10, 12, 14}, Vals: []int{1, 2, 3},
			WErr: werr,
		}, {
			Seg:  segment.Segment[int]{Start: 20, Count: 2, Slope: 1},
			Keys: []int{20, 21}, Vals: []int{4, 5},
			BufKeys: []int{22}, BufVals: []int{6},
			Deletes: 3,
			WErr:    werr / 2,
		}}}
		blob, err := codec.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !snapsEqual(back, snap) {
			t.Fatalf("WErr %d: decoded %+v, want %+v", werr, back, snap)
		}
	}
}
