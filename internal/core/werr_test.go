package core

import (
	"testing"

	"fitingtree/internal/num"
)

// loosenFrom records the looser bound werr on every page holding a key at
// or above from, and re-derives those pages' heads: the shape of a store
// whose upper pages were built under another bound. A looser bound still
// holds every key, so the tree stays valid. The tree must own its chunks.
func loosenFrom[K num.Key, V any](tr *Tree[K, V], from K, werr int) {
	for _, c := range tr.chunks {
		for pi, p := range c.pages {
			if p.lastKey() >= from {
				p.werr = werr
				c.heads[pi] = headOf(p)
			}
		}
	}
}

// mixedWErrTree builds a tree whose pages carry two different error
// bounds: the tree's own below the middle key, a looser one above it.
func mixedWErrTree(t *testing.T) (*Tree[int, int], []int) {
	t.Helper()
	tr, keys := buildJagged(t, 30_000)
	loosenFrom(tr, keys[len(keys)/2], 2*tr.opts.segError())
	seen := map[int]int{}
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			seen[p.werr]++
		}
	}
	if len(seen) < 2 {
		t.Fatalf("expected mixed per-page bounds, got %v", seen)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr, keys
}

func TestWErrPersistsThroughAssemble(t *testing.T) {
	tr, _ := mixedWErrTree(t)
	re, err := AssembleChunks(snapAll(tr), tr.Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
	var want, got []int
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			want = append(want, p.werr)
		}
	}
	for _, c := range re.chunks {
		for _, p := range c.pages {
			got = append(got, p.werr)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("recovered %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("page %d recovered werr %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWErrLegacySnapshotFallsBack(t *testing.T) {
	tr, _ := mixedWErrTree(t)
	snaps := snapAll(tr)
	for ci := range snaps {
		for pi := range snaps[ci].Pages {
			snaps[ci].Pages[pi].WErr = 0 // as written before the field existed
		}
	}
	re, err := AssembleChunks(snaps, tr.Options())
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Options().segError()
	for _, c := range re.chunks {
		for _, p := range c.pages {
			if p.werr != want {
				t.Fatalf("legacy page restored with werr %d, want global %d", p.werr, want)
			}
		}
	}
	// A negative bound is corruption, not legacy.
	snaps[0].Pages[0].WErr = -1
	if _, err := AssembleChunks(snaps, tr.Options()); err == nil {
		t.Fatal("negative WErr assembled without error")
	}
}

func TestSnapCodecRoundTripsWErr(t *testing.T) {
	tr, _ := mixedWErrTree(t)
	codec := NewSnapCodec[int, int]()
	for ci := 0; ci < tr.NumChunks(); ci++ {
		snap := tr.ChunkSnap(ci)
		blob, err := codec.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Pages) != len(snap.Pages) {
			t.Fatalf("chunk %d: decoded %d pages, want %d", ci, len(back.Pages), len(snap.Pages))
		}
		for pi := range snap.Pages {
			if back.Pages[pi].WErr != snap.Pages[pi].WErr {
				t.Fatalf("chunk %d page %d: decoded WErr %d, want %d",
					ci, pi, back.Pages[pi].WErr, snap.Pages[pi].WErr)
			}
		}
	}
}
