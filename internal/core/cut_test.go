package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fitingtree/internal/num"
)

// kv is one element of a chain's content, in Ascend order.
type kv[K num.Key] struct {
	k K
	v uint64
}

// chainContent concatenates the trees' Ascend streams.
func chainContent[K num.Key](trees []*Tree[K, uint64]) []kv[K] {
	var out []kv[K]
	for _, tr := range trees {
		tr.Ascend(func(k K, v uint64) bool {
			out = append(out, kv[K]{k, v})
			return true
		})
	}
	return out
}

// chainPages returns the trees' pages in chain order.
func chainPages[K num.Key](trees []*Tree[K, uint64]) []*page[K, uint64] {
	var out []*page[K, uint64]
	for _, tr := range trees {
		for _, c := range tr.chunks {
			out = append(out, c.pages...)
		}
	}
	return out
}

// cutFences picks fences of every kind Cut distinguishes from the chain:
// page starts (every start of a duplicate run spilling across pages among
// them), keys inside a page, a key below the first and one above the last.
// It returns them strictly increasing, with how many spill fences it took.
func cutFences[K num.Key](rng *rand.Rand, trees []*Tree[K, uint64], below, above K) ([]K, int) {
	fences, spills := []K{below, above}, 0
	var prev *page[K, uint64]
	for _, p := range chainPages(trees) {
		switch {
		case prev != nil && prev.lastKey() == p.start() && prev.start() < p.start():
			fences, spills = append(fences, p.start()), spills+1
		case rng.Intn(6) == 0:
			fences = append(fences, p.start())
		case rng.Intn(6) == 0 && len(p.keys) > 2:
			fences = append(fences, p.keys[len(p.keys)/2])
		}
		prev = p
	}
	slices.Sort(fences)
	return slices.Compact(fences), spills
}

// checkCut cuts trees at fences and checks every promise Cut makes: the
// outputs, read in order, hold the input's content exactly; each is a valid
// tree holding exactly its fence range; every page no fence straddles is
// carried by identity and every straddling one is rebuilt; and the inputs
// are untouched.
func checkCut[K num.Key](t *testing.T, name string, trees []*Tree[K, uint64], fences []K) {
	t.Helper()
	want := chainContent(trees)
	var ids [][]uint64
	for _, tr := range trees {
		ids = append(ids, tr.PageIDs())
	}
	out := Cut(trees, fences)
	if len(out) != len(fences)+1 {
		t.Fatalf("%s: %d trees for %d fences", name, len(out), len(fences))
	}
	for i, tr := range out {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: output %d: %v", name, i, err)
		}
		tr.Ascend(func(k K, _ uint64) bool {
			if (i > 0 && k < fences[i-1]) || (i < len(fences) && k >= fences[i]) {
				t.Fatalf("%s: output %d holds %v, outside its fence range", name, i, k)
			}
			return true
		})
	}
	if got := chainContent(out); !slices.Equal(got, want) {
		t.Fatalf("%s: the outputs hold %d elements, the input %d, or their order differs", name, len(got), len(want))
	}
	carried := map[uint64]bool{}
	for _, tr := range out {
		for _, id := range tr.PageIDs() {
			carried[id] = true
		}
	}
	for _, p := range chainPages(trees) {
		i := sort.Search(len(fences), func(i int) bool { return fences[i] > p.firstKey() })
		straddles := i < len(fences) && fences[i] <= p.lastKey()
		if carried[p.id] == straddles {
			t.Fatalf("%s: page %v (keys %v..%v) straddles a fence: %v, carried: %v",
				name, p.start(), p.firstKey(), p.lastKey(), straddles, carried[p.id])
		}
	}
	if got := chainContent(trees); !slices.Equal(got, want) {
		t.Fatalf("%s: the cut changed its input's content", name)
	}
	for i, tr := range trees {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: input %d after the cut: %v", name, i, err)
		}
		if !slices.Equal(tr.PageIDs(), ids[i]) {
			t.Fatalf("%s: the cut changed input %d's pages", name, i)
		}
	}
}

// foldRandom folds rounds of random adds (duplicates of stored keys among
// them) and deletes into tr through MergeCOW.
func foldRandom[K num.Key](rng *rand.Rand, tr *Tree[K, uint64], mk func(int) K, span, rounds int) *Tree[K, uint64] {
	for r := 0; r < rounds; r++ {
		byKey := map[K]*MergeOp[K, uint64]{}
		for i := 0; i < 200; i++ {
			k := mk(rng.Intn(span))
			op := byKey[k]
			if op == nil {
				op = &MergeOp[K, uint64]{Key: k}
				byKey[k] = op
			}
			if rng.Intn(3) == 0 && tr.Contains(k) && op.Dels == 0 {
				op.Dels = 1
			} else {
				op.Adds = append(op.Adds, uint64(1_000_000+r*1000+i))
			}
		}
		ops := make([]MergeOp[K, uint64], 0, len(byKey))
		for _, op := range byKey {
			ops = append(ops, *op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		tr = tr.MergeCOW(ops)
	}
	return tr
}

// runKeys returns n sorted key indexes in which one in five starts a run
// of up to 40 equal keys, so segments start inside runs and duplicates
// spill across page boundaries.
func runKeys(rng *rand.Rand, n int) []int {
	keys := make([]int, 0, n)
	for k := 0; len(keys) < n; k += 1 + rng.Intn(4) {
		reps := 1
		if rng.Intn(5) == 0 {
			reps = 1 + rng.Intn(40)
		}
		for ; reps > 0 && len(keys) < n; reps-- {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCutDifferential runs checkCut over folded, buffered, restored and
// string-keyed chains, as one tree and as several, at random fences.
func TestCutDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		idx := runKeys(rng, 4000+rng.Intn(8000))
		span := idx[len(idx)-1] + 10

		u := func(i int) uint64 { return uint64(i)*3 + 3 }
		tr := build(t, idx, u, Options{Error: 8})
		folded := foldRandom(rng, tr, u, span, 4)
		fences, spills := cutFences(rng, []*Tree[uint64, uint64]{folded}, 0, u(span+1))
		if spills == 0 {
			t.Fatalf("trial %d: no duplicate run spills across a fence", trial)
		}
		checkCut(t, fmt.Sprintf("trial %d folded", trial), []*Tree[uint64, uint64]{folded}, fences)
		// The same chain as three trees: the outputs of a cut are a chain.
		parts := Cut([]*Tree[uint64, uint64]{folded}, []uint64{u(span / 3), u(2 * span / 3)})
		fences, _ = cutFences(rng, parts, 0, u(span+1))
		checkCut(t, fmt.Sprintf("trial %d three trees", trial), parts, fences)

		// A single-writer tree with insert buffers and in-place deletes, and
		// the same pages restored from their checkpoint image.
		buffered := build(t, idx, u, Options{Error: 16, BufferSize: 6})
		for i := 0; i < 600; i++ {
			buffered.Insert(u(rng.Intn(span))+1, uint64(2_000_000+i))
			buffered.Delete(u(rng.Intn(span)))
		}
		buffered.Insert(0, 7) // below the first page's start: into its buffer
		fences, _ = cutFences(rng, []*Tree[uint64, uint64]{buffered}, 0, u(span+1))
		fences[0] = 1 // between the buffered 0 and the first start
		checkCut(t, fmt.Sprintf("trial %d buffered", trial), []*Tree[uint64, uint64]{buffered}, fences)
		snaps := make([]ChunkSnap[uint64, uint64], buffered.NumChunks())
		for i := range snaps {
			snaps[i] = buffered.ChunkSnap(i)
		}
		restored, err := AssembleChunks(snaps, buffered.Options())
		if err != nil {
			t.Fatal(err)
		}
		checkCut(t, fmt.Sprintf("trial %d restored", trial), []*Tree[uint64, uint64]{restored}, fences)

		s := func(i int) string { return fmt.Sprintf("key-%07d", i) }
		str := foldRandom(rng, build(t, idx, s, Options{Error: 8}), s, span, 3)
		sf, _ := cutFences(rng, []*Tree[string, uint64]{str}, "", s(span+1))
		checkCut(t, fmt.Sprintf("trial %d strings", trial), []*Tree[string, uint64]{str}, sf)
	}
	tr := build(t, []int{1, 2, 3}, func(i int) int { return i }, Options{})
	if out := Cut([]*Tree[int, uint64]{tr}, nil); len(out) != 1 || out[0] != tr {
		t.Fatal("a cut with nothing to cut did not return its input")
	}
}

// build bulk-loads the keys mk makes of idx, each valued by its position.
func build[K num.Key](t *testing.T, idx []int, mk func(int) K, opts Options) *Tree[K, uint64] {
	t.Helper()
	keys := make([]K, len(idx))
	vals := make([]uint64, len(idx))
	for i, x := range idx {
		keys[i], vals[i] = mk(x), uint64(i)
	}
	tr, err := BulkLoad(keys, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestQuantileFencesMatchRun pins the page-walking quantile fallback to its
// definition over the drained run: the key at each quantile position,
// advanced past its duplicate run.
func TestQuantileFencesMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		idx := runKeys(rng, 50+rng.Intn(3000))
		u := func(i int) uint64 { return uint64(i) }
		tr := build(t, idx, u, Options{Error: 16, BufferSize: 4})
		for i := 0; i < 200; i++ {
			tr.Insert(uint64(rng.Intn(idx[len(idx)-1]+5)), 0)
		}
		trees := Cut([]*Tree[uint64, uint64]{tr}, []uint64{uint64(idx[len(idx)/2])})
		var run []uint64
		for _, e := range chainContent(trees) {
			run = append(run, e.k)
		}
		for want := 2; want <= 9; want++ {
			var ref []uint64
			for i := 1; i < want; i++ {
				pos := i * len(run) / want
				if pos <= 0 || pos >= len(run) {
					continue
				}
				if f := run[pos]; run[pos-1] == f {
					pos = sort.Search(len(run), func(j int) bool { return run[j] > f })
				}
				if pos < len(run) && (len(ref) == 0 || run[pos] > ref[len(ref)-1]) {
					ref = append(ref, run[pos])
				}
			}
			if got := QuantileFences(trees, want); !slices.Equal(got, ref) {
				t.Fatalf("trial %d, %d ranges: fences %v, the run's quantiles %v", trial, want, got, ref)
			}
		}
	}
}
