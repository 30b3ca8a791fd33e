package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"fitingtree/internal/segment"
	"fitingtree/internal/workload"
)

// span is the address range of one page array, cap included.
type span struct {
	lo, hi  uintptr
	rebuilt bool
}

// arraySpans returns the key and value arrays of every page of tr.
func arraySpans(tr *Tree[uint64, uint64], rebuilt func(*page[uint64, uint64]) bool) []span {
	var out []span
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			for _, s := range [][]uint64{p.keys, p.vals} {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
				out = append(out, span{lo, lo + uintptr(cap(s))*8, rebuilt(p)})
			}
		}
	}
	return out
}

// TestFoldPagesOwnTheirArrays pins what a fold hands a rebuilt page: key
// and value arrays of exactly the page's size that overlap no other page's
// — not a sibling cut from the same merged run, not a page of the receiver
// — nor the worker's merge scratch, so a page keeps alive its own data and
// nothing else. (Two pages cut from one array side by side do not overlap
// either; that sharing is what TestFoldReleasesReplacedArrays measures.)
func TestFoldPagesOwnTheirArrays(t *testing.T) {
	keys := workload.Weblogs(200_000, 5)
	base := buildCOWBase(t, keys, Options{Error: 16, BufferSize: 0})
	rng := rand.New(rand.NewSource(3))
	tr := base
	for fold := 0; fold < 4; fold++ {
		var ops []MergeOp[uint64, uint64]
		for _, i := range rng.Perm(len(keys))[:3000] {
			op := MergeOp[uint64, uint64]{Key: keys[i] + uint64(rng.Intn(3))}
			if rng.Intn(4) == 0 {
				op.Adds = make([]uint64, 40) // a burst that splits its page
			} else {
				op.Adds = []uint64{1}
			}
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		ops = slices.CompactFunc(ops, func(a, b MergeOp[uint64, uint64]) bool { return a.Key == b.Key })
		var scratch regionScratch[uint64, uint64]
		for _, iv := range tr.dirtyIntervals(ops) {
			pages, _ := tr.rebuildRegion(iv, ops[iv.opLo:iv.opHi], &scratch, &Counters{})
			for _, s := range [][]uint64{scratch.keys, scratch.vals} {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
				hi := lo + uintptr(cap(s))*8
				for _, p := range pages {
					for _, a := range [][]uint64{p.keys, p.vals} {
						if at := uintptr(unsafe.Pointer(unsafe.SliceData(a))); at >= lo && at < hi {
							t.Fatalf("fold %d: page at %d lives in the merge scratch", fold, p.start())
						}
					}
				}
			}
		}
		old := map[*page[uint64, uint64]]bool{}
		for _, c := range tr.chunks {
			for _, p := range c.pages {
				old[p] = true
			}
		}
		next := tr.MergeCOW(ops)
		fresh := func(p *page[uint64, uint64]) bool { return !old[p] }
		made := 0
		for _, c := range next.chunks {
			for _, p := range c.pages {
				if !fresh(p) {
					continue
				}
				made++
				if cap(p.keys) != len(p.keys) || cap(p.vals) != len(p.vals) {
					t.Fatalf("fold %d: rebuilt page at %d has %d keys in cap %d, %d values in cap %d",
						fold, p.start(), len(p.keys), cap(p.keys), len(p.vals), cap(p.vals))
				}
			}
		}
		if c := next.Counters(); made < 1000 || c.Refits == 0 || c.PagesMade == c.Refits {
			t.Fatalf("fold %d rebuilt %d pages (%+v): want refits and splits among many", fold, made, c)
		}
		// Every array of the new tree and of the receiver, by address: a
		// rebuilt page's must overlap neither neighbor.
		spans := append(arraySpans(next, fresh), arraySpans(tr, func(*page[uint64, uint64]) bool { return false })...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		spans = slices.Compact(spans) // pages carried by both trees
		for i := 1; i < len(spans); i++ {
			if (spans[i].rebuilt || spans[i-1].rebuilt) && spans[i].lo < spans[i-1].hi {
				t.Fatalf("fold %d: a rebuilt page's array [%#x,%#x) overlaps [%#x,%#x)",
					fold, spans[i].lo, spans[i].hi, spans[i-1].lo, spans[i-1].hi)
			}
		}
		tr = next
	}
}

// TestInsertMergePagesOwnTheirArrays pins what bare Tree's buffer merge
// (Algorithm 4) hands the pages it makes: arrays of exactly each page's
// size, cut from no run a sibling shares (a page's keys and values never
// both continue its predecessor's), and the segments ShrinkingCone draws
// over the merged run. The counters follow the one rule: a merge counts
// once and adds the pages it makes.
func TestInsertMergePagesOwnTheirArrays(t *testing.T) {
	keys := workload.Weblogs(40_000, 7)
	var bulk, held []uint64
	for i, k := range keys {
		if i%4 == 3 {
			held = append(held, k)
		} else {
			bulk = append(bulk, k)
		}
	}
	opts := Options{Error: 16, BufferSize: 8}
	tr, err := BulkLoad(bulk, bulk, opts)
	if err != nil {
		t.Fatal(err)
	}
	chain := func() []*page[uint64, uint64] {
		var ps []*page[uint64, uint64]
		for _, c := range tr.chunks {
			ps = append(ps, c.pages...)
		}
		return ps
	}
	rng := rand.New(rand.NewSource(11))
	var want Counters
	split := 0
	for n, i := range rng.Perm(len(held)) {
		burst := 1
		if n%16 == 0 {
			burst = 24 // duplicates that split their page
		}
		for b := 0; b < burst; b++ {
			k := held[i]
			want.Inserts++
			p := tr.runHead(tr.locate(k), k).page()
			if len(p.bufKeys)+1 < opts.BufferSize {
				tr.Insert(k, k)
				continue
			}
			at, _ := findKey(p.bufKeys, k)
			runK, runV := mergeSorted(p.keys, p.vals,
				insertAt(slices.Clone(p.bufKeys), at, k), insertAt(slices.Clone(p.bufVals), at, k))
			segs := segment.ShrinkingCone(runK, opts.segError())
			want.Merges++
			want.PagesMade += len(segs)
			old := map[*page[uint64, uint64]]bool{}
			for _, q := range chain() {
				old[q] = true
			}
			tr.Insert(k, k)
			var made []*page[uint64, uint64]
			for _, q := range chain() {
				if !old[q] {
					made = append(made, q)
				}
			}
			if len(made) != len(segs) {
				t.Fatalf("insert %d: the merge made %d pages, ShrinkingCone draws %d", n, len(made), len(segs))
			}
			for j, q := range made {
				s := segs[j]
				if q.seg.Start != s.Start || q.seg.StartPos != 0 || q.seg.Count != s.Count || q.seg.Slope != s.Slope ||
					!slices.Equal(q.keys, runK[s.StartPos:s.EndPos()]) || !slices.Equal(q.vals, runV[s.StartPos:s.EndPos()]) {
					t.Fatalf("insert %d: page %d of the merge is %+v, ShrinkingCone draws %+v", n, j, q.seg, s)
				}
				if cap(q.keys) != len(q.keys) || cap(q.vals) != len(q.vals) {
					t.Fatalf("insert %d: page %d has %d keys in cap %d, %d values in cap %d",
						n, j, len(q.keys), cap(q.keys), len(q.vals), cap(q.vals))
				}
			}
			if len(made) > 1 {
				split++
			}
		}
	}
	if got := tr.Counters(); got != want {
		t.Fatalf("Counters %+v, want %+v", got, want)
	}
	if want.Merges < 500 || split < 50 {
		t.Fatalf("%d merges, %d of them split: the stream exercises too little", want.Merges, split)
	}
	end := func(s []uint64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) + uintptr(len(s))*8 }
	start := func(s []uint64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }
	ps := chain()
	for j := 1; j < len(ps); j++ {
		p, q := ps[j-1], ps[j]
		if end(p.keys) == start(q.keys) && end(p.vals) == start(q.vals) {
			t.Fatalf("pages at %d and %d sit back to back in one key array and one value array", p.start(), q.start())
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFoldReleasesReplacedArrays folds batch after batch into a tree until
// every bulk-loaded page has been replaced several times over, drops every
// tree but the last and measures the heap: what is left must be about the
// data (16 bytes per element), not the bulk-load arrays or the merged runs
// of earlier folds pinned by one surviving page each.
func TestFoldReleasesReplacedArrays(t *testing.T) {
	const n = 400_000
	before := liveHeap()
	tr := func() *Tree[uint64, uint64] {
		u := workload.Weblogs(n*5/4, 8)
		u = slices.Compact(u)
		rng := rand.New(rand.NewSource(8))
		rng.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
		bulk, hold := u[:len(u)*4/5], u[len(u)*4/5:]
		slices.Sort(bulk)
		tr := buildCOWBase(t, bulk, Options{})
		first := map[uint64]bool{}
		for _, id := range tr.PageIDs() {
			first[id] = true
		}
		for len(hold) > 0 {
			batch := hold[:min(tr.NumPages()*2, len(hold))] // about two ops per page
			hold = hold[len(batch):]
			slices.Sort(batch)
			ops := make([]MergeOp[uint64, uint64], len(batch))
			for i, k := range batch {
				ops[i] = MergeOp[uint64, uint64]{Key: k, Adds: []uint64{k}}
			}
			tr = tr.MergeCOW(ops)
		}
		for _, id := range tr.PageIDs() {
			if first[id] {
				t.Fatalf("bulk-loaded page %d was never rebuilt: the scenario proves nothing", id)
			}
		}
		return tr
	}()
	after := liveHeap()
	data := uint64(tr.Len()) * 16
	if held := after - before; held > data*3/2 {
		t.Fatalf("%d elements hold %d bytes of heap, %.2fx their data", tr.Len(), held, float64(held)/float64(data))
	}
	runtime.KeepAlive(tr)
}

// TestRecoveryReleasesDecodedArrays runs recovery's core on a checkpoint:
// every chunk of a bulk-loaded tree is encoded, decoded and assembled into
// pages with arrays of exactly their size, and one replay-sized fold
// (about four adds per page) rebuilds most pages while some assembled
// pages survive it, in nearly every chunk. With every other tree and blob
// dropped, what is left must be about the data: a surviving page may keep
// alive its own arrays and nothing else, not the decoded arrays of the
// pages the fold replaced.
func TestRecoveryReleasesDecodedArrays(t *testing.T) {
	const n = 1_000_000
	before := liveHeap()
	tr := func() *Tree[uint64, uint64] {
		keys := workload.Weblogs(n, 11)
		base := buildCOWBase(t, keys, Options{})
		codec := NewSnapCodec[uint64, uint64]()
		snaps := make([]ChunkSnap[uint64, uint64], base.NumChunks())
		for i := range snaps {
			blob, err := codec.Encode(base.ChunkSnap(i))
			if err != nil {
				t.Fatal(err)
			}
			if snaps[i], err = codec.Decode(blob); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := AssembleChunks(snaps, base.Options())
		if err != nil {
			t.Fatal(err)
		}
		for what, built := range map[string]*Tree[uint64, uint64]{"bulk-loaded": base, "assembled": loaded} {
			for _, c := range built.chunks {
				for _, p := range c.pages {
					if cap(p.keys) != len(p.keys) || cap(p.vals) != len(p.vals) {
						t.Fatalf("%s page at %d has %d keys in cap %d, %d values in cap %d",
							what, p.start(), len(p.keys), cap(p.keys), len(p.vals), cap(p.vals))
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(11))
		tail := make([]uint64, 4*loaded.NumPages())
		for i := range tail {
			tail[i] = keys[rng.Intn(len(keys))] + 1 + uint64(rng.Intn(5))
		}
		slices.Sort(tail)
		tail = slices.Compact(tail)
		ops := make([]MergeOp[uint64, uint64], len(tail))
		for i, k := range tail {
			ops[i] = MergeOp[uint64, uint64]{Key: k, Adds: []uint64{k}}
		}
		tr := loaded.MergeCOW(ops)
		kept := map[*page[uint64, uint64]]bool{}
		for _, c := range tr.chunks {
			for _, p := range c.pages {
				kept[p] = true
			}
		}
		survivors, pinning := 0, 0 // surviving pages, chunks with one
		for _, c := range loaded.chunks {
			had := survivors
			for _, p := range c.pages {
				if kept[p] {
					survivors++
				}
			}
			if survivors > had {
				pinning++
			}
		}
		if survivors*5 > loaded.NumPages() || pinning < loaded.NumChunks()*9/10 {
			t.Fatalf("%d of %d assembled pages survived the fold, in %d of %d chunks: the scenario proves nothing",
				survivors, loaded.NumPages(), pinning, loaded.NumChunks())
		}
		t.Logf("%d of %d assembled pages survived the fold, in %d of %d chunks",
			survivors, loaded.NumPages(), pinning, loaded.NumChunks())
		return tr
	}()
	after := liveHeap()
	data := uint64(tr.Len()) * 16
	if held := after - before; held > data*3/2 {
		t.Fatalf("%d elements hold %d bytes of heap, %.2fx their data", tr.Len(), held, float64(held)/float64(data))
	}
	runtime.KeepAlive(tr)
}

// TestNumPagesMatchesChain compares the carried page count with a walk of
// the chain after each kind of operation that splices pages: bare-tree
// inserts and deletes (buffer merges, splits, emptied pages), folds, and a
// tree assembled from chunk snapshots.
func TestNumPagesMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	check := func(what string, tr *Tree[uint64, uint64]) {
		t.Helper()
		if got, want := tr.NumPages(), len(tr.PageIDs()); got != want {
			t.Fatalf("%s: NumPages %d, the chain has %d pages", what, got, want)
		}
	}
	empty, err := BulkLoad[uint64, uint64](nil, nil, Options{Error: 8, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("empty", empty)
	tr := empty
	var live []uint64
	for i := 0; i < 20_000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			tr.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			k := rng.Uint64() % 50_000
			tr.Insert(k, k)
			live = append(live, k)
		}
		if i%500 == 0 {
			check("in-place edits", tr)
		}
	}
	check("in-place edits", tr)
	for fold := 0; fold < 20; fold++ {
		seen := map[uint64]bool{}
		var ops []MergeOp[uint64, uint64]
		for len(ops) < 1+rng.Intn(400) {
			k := rng.Uint64() % 50_000
			if seen[k] {
				continue
			}
			seen[k] = true
			op := MergeOp[uint64, uint64]{Key: k}
			if has := tr.Contains(k); has && rng.Intn(2) == 0 {
				op.Dels = 1
			} else {
				op.Adds = make([]uint64, 1+rng.Intn(30))
			}
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		tr = tr.MergeCOW(ops)
		check("fold", tr)
	}
	check("bootstrap fold", empty.MergeCOW([]MergeOp[uint64, uint64]{{Key: 1, Adds: make([]uint64, 500)}, {Key: 9, Adds: []uint64{1}}}))
	snaps := make([]ChunkSnap[uint64, uint64], tr.NumChunks())
	for i := range snaps {
		snaps[i] = tr.ChunkSnap(i)
	}
	loaded, err := AssembleChunks(snaps, tr.Options())
	if err != nil {
		t.Fatal(err)
	}
	check("assembled", loaded)
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldScratchDropsValues pins the lifetime of the merge scratch for
// values that hold pointers: one fold carries a value through the scratch
// into a rebuilt page, the next deletes it, and once the older trees are
// gone nothing — no scratch kept past its fold — may keep it reachable.
func TestFoldScratchDropsValues(t *testing.T) {
	type blob struct{ b [1 << 12]byte }
	const n = 50_000 // enough regions for the rebuild to fan out
	keys := make([]uint64, n)
	vals := make([]*blob, n)
	shared := &blob{}
	for i := range keys {
		keys[i], vals[i] = uint64(i)*7, shared
	}
	victim := uint64(n/2) * 7
	collected := make(chan struct{})
	tr := func() *Tree[uint64, *blob] {
		base, err := BulkLoad(keys, vals, Options{Error: 8})
		if err != nil {
			t.Fatal(err)
		}
		v := &blob{}
		runtime.SetFinalizer(v, func(*blob) { close(collected) })
		// Adds next to every third key: the victim's page and most others
		// pass through a scratch, the victim's value included.
		var ops []MergeOp[uint64, *blob]
		for i := 0; i < n; i += 3 {
			ops = append(ops, MergeOp[uint64, *blob]{Key: keys[i] + 1, Adds: []*blob{shared}})
		}
		withV := base.MergeCOW([]MergeOp[uint64, *blob]{{Key: victim, Adds: []*blob{v}}}).MergeCOW(ops)
		if got, _ := withV.Lookup(keys[0] + 1); got != shared {
			t.Fatal("fold lost an add")
		}
		return withV.MergeCOW([]MergeOp[uint64, *blob]{{Key: victim, Tombs: []Tomb[*blob]{{Val: v}}}})
	}()
	for i := 0; i < 10; i++ {
		runtime.GC() // the finalizer runs on its own goroutine, some time after
		select {
		case <-collected:
			if tr.Len() != n+(n+2)/3 {
				t.Fatalf("Len = %d, want %d", tr.Len(), n+(n+2)/3)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("a value deleted by a fold is still reachable after the older trees were dropped")
}
