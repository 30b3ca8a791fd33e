package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"fitingtree/internal/workload"
)

// buildShareBase builds a deep tree (many segments, many chunks) for
// structural-sharing assertions.
func buildShareBase(t *testing.T, n int) *Tree[uint64, uint64] {
	t.Helper()
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(17))
	k := uint64(0)
	for i := range keys {
		k += uint64(1 + rng.Intn(13))
		keys[i] = k
	}
	return buildCOWBase(t, keys, Options{Error: 8, BufferSize: 2})
}

// tightOps builds a small op cluster around the middle of the key space.
func tightOps(tr *Tree[uint64, uint64]) []MergeOp[uint64, uint64] {
	maxKey, _, _ := tr.Max()
	mid := maxKey / 2
	return []MergeOp[uint64, uint64]{
		{Key: mid, Adds: []uint64{1}},
		{Key: mid + 2, Adds: []uint64{2}},
		{Key: mid + 4, Dels: 1},
	}
}

// TestMergeCOWSharesChunks pins the chunk-granular contract: a tight op
// cluster re-cuts only the chunks its dirty interval overlaps; every other
// chunk of the published tree is pointer-identical (same chunk identity)
// with the parent's.
func TestMergeCOWSharesChunks(t *testing.T) {
	base := buildShareBase(t, 300_000)
	baseChunks := base.ChunkIDs()
	if len(baseChunks) < 20 {
		t.Fatalf("want a deep chunked chain, got %d chunks", len(baseChunks))
	}

	merged := base.MergeCOW(tightOps(base))
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	old := map[uint64]bool{}
	for _, id := range baseChunks {
		old[id] = true
	}
	shared, fresh := 0, 0
	for _, id := range merged.ChunkIDs() {
		if old[id] {
			shared++
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("no chunks were re-cut")
	}
	// One coalesced dirty interval spans at most a few pages, so at most
	// two boundary chunks are replaced — re-cut into at most 3 chunks.
	if fresh > 3 {
		t.Fatalf("a 3-key delta re-cut %d chunks (shared %d of %d)", fresh, shared, len(baseChunks))
	}
	if shared < len(baseChunks)-2 {
		t.Fatalf("only %d of %d chunks shared", shared, len(baseChunks))
	}
}

// TestMergeCOWSharesHeadArrays pins what a publication copies of the index:
// the chunk spine and its start array, and the start and head arrays of the
// chunks it re-cuts — every other chunk is shared whole, so its start and
// head arrays are the parent's very arrays, and the heads of carried pages
// in a re-cut chunk still point at the parent's key and value arrays.
func TestMergeCOWSharesHeadArrays(t *testing.T) {
	base := buildShareBase(t, 100_000)
	merged := base.MergeCOW(tightOps(base))
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if &merged.starts[0] == &base.starts[0] {
		t.Fatal("publication shares the parent's top-level start array")
	}
	byID := map[uint64]*chunk[uint64, uint64]{}
	pages := map[*page[uint64, uint64]]bool{}
	for _, c := range base.chunks {
		byID[c.id] = c
		for _, p := range c.pages {
			pages[p] = true
		}
	}
	shared, recut, carried := 0, 0, 0
	for _, c := range merged.chunks {
		if old := byID[c.id]; old != nil {
			if c != old || &c.starts[0] != &old.starts[0] || &c.heads[0] != &old.heads[0] {
				t.Fatalf("chunk %d kept its identity but not its arrays", c.id)
			}
			shared++
			continue
		}
		recut++
		for pi, p := range c.pages {
			if pages[p] {
				carried++
				if &c.heads[pi].keys[0] != &p.keys[0] {
					t.Fatalf("carried page %v: head points away from the page's keys", p.start())
				}
			}
		}
	}
	if recut == 0 || recut > 3 {
		t.Fatalf("a 3-key delta re-cut %d chunks", recut)
	}
	if shared < len(base.chunks)-2 {
		t.Fatalf("only %d of %d chunks shared", shared, len(base.chunks))
	}
	if carried == 0 {
		t.Fatal("the re-cut chunks carried no page of the parent")
	}
	// And the parent is untouched: its arrays still describe its pages.
	if err := base.CheckInvariants(); err != nil {
		t.Fatalf("parent after publication: %v", err)
	}
}

// TestMergeCOWPublicationConcurrentReaders is the -race stress for the
// publication: a single flusher thread repeatedly MergeCOWs the current
// tree and publishes it through an atomic pointer while reader goroutines
// hammer point lookups, batch probes, and ordered scans on whatever version
// they last loaded. Run under -race this pins that publication never
// writes into structure a published tree shares (chunks, their start and
// head arrays, pages).
func TestMergeCOWPublicationConcurrentReaders(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testMergeCOWPublicationConcurrentReaders(t, ms.shift) })
	}
}

func testMergeCOWPublicationConcurrentReaders(t *testing.T, shift int64) {
	base := buildShareBase(t, 120_000)
	var cur atomic.Pointer[Tree[uint64, uint64]]
	cur.Store(base)
	maxKey, _, _ := base.Max()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			probes := make([]uint64, 4*batchGroup+5) // unsorted, several kernel groups and a short last one
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr := cur.Load()
				k := uint64(rng.Int63n(int64(maxKey)))
				tr.Lookup(k)
				for i := range probes {
					probes[i] = uint64(rng.Int63n(int64(maxKey)))
				}
				tr.LookupBatch(probes)
				n := 0
				tr.AscendRange(k, k+200, func(uint64, uint64) bool {
					n++
					return n < 64
				})
			}
		}(int64(100+r) + shift)
	}

	rng := rand.New(rand.NewSource(7 + shift))
	for flush := 0; flush < 60; flush++ {
		tr := cur.Load()
		seen := map[uint64]bool{}
		var ops []MergeOp[uint64, uint64]
		for len(ops) < 32 {
			k := uint64(rng.Int63n(int64(maxKey)))
			if seen[k] {
				continue
			}
			seen[k] = true
			op := MergeOp[uint64, uint64]{Key: k}
			if rng.Intn(4) == 0 && tr.Contains(k) {
				op.Dels = 1
			} else {
				op.Adds = []uint64{k}
			}
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		cur.Store(tr.MergeCOW(ops))
	}
	close(stop)
	wg.Wait()
	if err := cur.Load().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupBatchUnsortedMatchesLookup is the randomized equivalence test
// for the grouped unsorted-probe fast path: on trees with duplicate runs
// and buffered inserts, a shuffled probe set must answer exactly like
// per-key Lookup calls.
func TestLookupBatchUnsortedMatchesLookup(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testLookupBatchUnsortedMatchesLookup(t, ms.shift) })
	}
}

func testLookupBatchUnsortedMatchesLookup(t *testing.T, shift int64) {
	rng := rand.New(rand.NewSource(53 + shift))
	for trial := 0; trial < 12; trial++ {
		n := 2_000 + rng.Intn(20_000)
		keys := workload.Weblogs(n, int64(trial+1)+shift)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i)
		}
		tr, err := BulkLoad(keys, vals, Options{Error: 16, BufferSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Buffered inserts and a few deletes so pages carry every
		// kind of content the search paths distinguish.
		maxKey := keys[len(keys)-1] + 100
		for i := 0; i < 500; i++ {
			tr.Insert(uint64(rng.Int63n(int64(maxKey))), uint64(1_000_000+i))
		}
		for i := 0; i < 100; i++ {
			tr.Delete(uint64(rng.Int63n(int64(maxKey))))
		}

		probes := make([]uint64, 700)
		for i := range probes {
			if rng.Intn(3) == 0 && len(keys) > 0 {
				probes[i] = keys[rng.Intn(len(keys))] // mostly hits
			} else {
				probes[i] = uint64(rng.Int63n(int64(maxKey)))
			}
		}
		// A genuinely unsorted order (the grouped path), including
		// clustered stretches that exercise group reuse.
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })

		bv, bf := tr.LookupBatch(probes)
		for i, k := range probes {
			v, ok := tr.Lookup(k)
			if bf[i] != ok {
				t.Fatalf("trial %d: found[%d] for key %d = %v, Lookup says %v", trial, i, k, bf[i], ok)
			}
			if ok && bv[i] != v {
				// Both must return a live value for k; with duplicates
				// any match is legal, so validate via Each.
				legal := false
				tr.Each(k, func(x uint64) bool {
					if x == bv[i] {
						legal = true
						return false
					}
					return true
				})
				if !legal {
					t.Fatalf("trial %d: batch value %d for key %d is not a live match", trial, bv[i], k)
				}
			}
		}
	}
}
