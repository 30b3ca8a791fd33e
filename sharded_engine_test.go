package fitingtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// These tests pin what the one sharded engine guarantees to both public
// types: the rebalance policy (a write-skew trigger that cannot repeat on
// an unsplittable range, and that a durable store now inherits) and the
// routed write (identical outcomes with and without the durability plug).

// TestHotKeyRebalanceSettles is the regression test for the write-skew
// trigger re-firing every minSkewWrites writes on a range it cannot split:
// 100k alternating Insert/Delete of one key on a 4-shard store used to
// rebuild the whole shard set 24 times, every time publishing the same
// fences.
func TestHotKeyRebalanceSettles(t *testing.T) {
	const n = 400_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 16
	}
	tr, err := BulkLoad(keys, keys, Options{Error: 32})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetAsyncFlush(false)
	fences := s.Bounds()
	hot := keys[n/8] + 1 // inside the first shard, not a stored key
	cur, published := s.set.Load(), 0
	for i := 0; i < 100_000; i++ {
		if i%2 == 0 {
			s.Insert(hot, 1)
		} else if !s.Delete(hot) {
			t.Fatalf("write %d: hot key vanished", i)
		}
		if ss := s.set.Load(); ss != cur {
			cur = ss
			published++
		}
	}
	if published > 1 {
		t.Fatalf("hot key forced %d shard-set rebuilds, want at most 1", published)
	}
	if !cur.skewSettled.Load() {
		t.Fatal("write-skew trigger never settled on the unsplittable range")
	}
	if got := s.Bounds(); !slices.Equal(got, fences) {
		t.Fatalf("fences moved to %v from %v", got, fences)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// Settling re-arms the pipelines it quiesced: the live shards follow the
	// engine's async setting again (a retired set would stay closed).
	s.SetAsyncFlush(true)
	for i, sh := range cur.shards {
		if sh.asyncOff.Load() {
			t.Fatalf("shard %d still has async flushing off", i)
		}
	}
	s.Close()
}

// fencesWithin counts the fences falling in [lo, hi].
func fencesWithin(bounds []int, lo, hi int) int {
	c := 0
	for _, b := range bounds {
		if b >= lo && b <= hi {
			c++
		}
	}
	return c
}

// rangeContent collects an AscendRange as (key, value) pairs.
func rangeContent(scan func(lo, hi int, fn func(k, v int) bool), lo, hi int) [][2]int {
	var out [][2]int
	scan(lo, hi, func(k, v int) bool {
		out = append(out, [2]int{k, v})
		return true
	})
	return out
}

// TestDurableWriteSkewRebalance pins the drift fix: a durable store runs
// the same rebalance as an in-memory one, so writes confined to one
// shard's range trip the write-skew trigger and the write-boosted fence
// weights split the hot range — through one committed, recoverable
// migration.
func TestDurableWriteSkewRebalance(t *testing.T) {
	// Heavy-tailed gaps and a small ε give the fence picker many segment
	// starts to weigh (and chunks small enough for a 700-element hot range
	// to dominate one); smooth data collapses into a few segments and falls
	// back to element quantiles, which no write rate can move.
	const n = 40_000
	rng := rand.New(rand.NewSource(7))
	keys := make([]int, n)
	for i := range keys {
		keys[i] = 1 + int(math.Exp(2*rng.NormFloat64()))
		if i > 0 {
			keys[i] += keys[i-1]
		}
	}
	tr, err := BulkLoad(keys, keys, Options{Error: 8})
	if err != nil {
		t.Fatal(err)
	}
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetSyncEvery(256)
	before := d.Bounds()
	if len(before) != 3 {
		t.Fatalf("store starts with fences %v, want 3", before)
	}
	// Updates (delete + reinsert, so sizes never move and only the write
	// tallies can trigger) confined to 700 elements at the head of the
	// second shard's range: the boost drags the first fence into them.
	hot := keys[10_050:10_750]
	lo, hi := hot[0], hot[len(hot)-1]
	if before[0] >= lo || before[1] <= hi {
		t.Fatalf("hot range [%d, %d] is not inside the second shard (fences %v)", lo, hi, before)
	}
	gen := d.Generation()
	for w := 0; w < 8192; w += 2 {
		k := hot[rng.Intn(len(hot))]
		if found, err := d.Delete(k); err != nil || !found {
			t.Fatalf("write %d: Delete(%d) = %v, %v", w, k, found, err)
		}
		if err := d.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Generation(); g != gen+1 {
		t.Fatalf("generation %d after the skewed writes, want %d", g, gen+1)
	}
	after := d.Bounds()
	if was, now := fencesWithin(before, lo, hi), fencesWithin(after, lo, hi); now <= was {
		t.Fatalf("hot range [%d, %d] covered by %d fences after the rebalance (%v), %d before (%v)",
			lo, hi, now, after, was, before)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	want := dump(d)
	if len(want) != n {
		t.Fatalf("store holds %d elements, want %d", len(want), n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Bounds(); !slices.Equal(got, after) {
		t.Fatalf("recovered fences %v, want %v", got, after)
	}
	if got := dump(rec); !pairsEqual(got, want) {
		t.Fatalf("recovered content differs: %d elements, want %d", len(got), len(want))
	}
	if g := rec.Generation(); g != gen+1 {
		t.Fatalf("recovered generation %d, want %d", g, gen+1)
	}
}

// TestEngineDifferential drives one randomized op script through an
// in-memory and a durable store built from the same tree and requires
// identical observable state — fences, shard sizes, length, range output —
// after every rebalance and at the end: the two public types are one
// engine, and the durability plug must not change what a write does. The
// script is skewed (inserts pile up past the last fence) so the size
// trigger fires on both.
func TestEngineDifferential(t *testing.T) {
	const seedKeys, maxKey = 600, 1 << 20
	keys := make([]int, seedKeys)
	for i := range keys {
		keys[i] = i * 7
	}
	build := func() *Tree[int, int] {
		tr, err := BulkLoad(keys, keys, Options{Error: 8})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	s, err := NewSharded(build(), 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), build(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetAutoCheckpoint(false)
	for _, knobs := range []interface {
		SetAsyncFlush(bool)
		SetFlushEvery(int)
		SetRebalanceFactor(float64)
	}{s, d} {
		knobs.SetAsyncFlush(false)
		knobs.SetFlushEvery(32)
		knobs.SetRebalanceFactor(1.5)
	}
	d.SetSyncEvery(64)

	compare := func(when string) {
		t.Helper()
		if a, b := s.Bounds(), d.Bounds(); !slices.Equal(a, b) {
			t.Fatalf("%s: Bounds %v (memory) vs %v (durable)", when, a, b)
		}
		if a, b := s.ShardSizes(), d.ShardSizes(); !slices.Equal(a, b) {
			t.Fatalf("%s: ShardSizes %v (memory) vs %v (durable)", when, a, b)
		}
		if a, b := s.Len(), d.Len(); a != b {
			t.Fatalf("%s: Len %d (memory) vs %d (durable)", when, a, b)
		}
		a, b := rangeContent(s.AscendRange, 0, maxKey), rangeContent(d.AscendRange, 0, maxKey)
		if !pairsEqual(a, b) {
			t.Fatalf("%s: AscendRange output differs (%d vs %d elements)", when, len(a), len(b))
		}
		if d.Err() != nil {
			t.Fatalf("%s: durable store poisoned: %v", when, d.Err())
		}
	}

	rng := rand.New(rand.NewSource(13))
	pick := func() int {
		if rng.Intn(4) > 0 {
			return seedKeys*7 + rng.Intn(4096) // the skew: past the last fence
		}
		return rng.Intn(seedKeys * 7)
	}
	rebalances, cur := 0, s.set.Load()
	for i := 0; i < 6000; i++ {
		k := pick()
		switch r := rng.Intn(100); {
		case r < 55:
			v := rng.Intn(4)
			s.Insert(k, v)
			if err := d.Insert(k, v); err != nil {
				t.Fatal(err)
			}
		case r < 70:
			a := s.Delete(k)
			b, err := d.Delete(k)
			if err != nil || a != b {
				t.Fatalf("op %d: Delete(%d) = %v (memory) vs %v, %v (durable)", i, k, a, b, err)
			}
		case r < 80:
			v := rng.Intn(4)
			a := s.DeleteValue(k, v)
			b, err := d.DeleteValue(k, v)
			if err != nil || a != b {
				t.Fatalf("op %d: DeleteValue(%d, %d) = %v (memory) vs %v, %v (durable)", i, k, v, a, b, err)
			}
		case r < 90:
			// Delete is flush-timing deterministic here (inline flush on
			// both), so even among duplicates the survivors match.
			var a, b []int
			s.Each(k, func(v int) bool { a = append(a, v); return true })
			d.Each(k, func(v int) bool { b = append(b, v); return true })
			if !slices.Equal(a, b) {
				t.Fatalf("op %d: Each(%d) = %v (memory) vs %v (durable)", i, k, a, b)
			}
		case r < 95:
			lo := pick()
			a, b := rangeContent(s.AscendRange, lo, lo+512), rangeContent(d.AscendRange, lo, lo+512)
			if !pairsEqual(a, b) {
				t.Fatalf("op %d: AscendRange(%d, %d) differs", i, lo, lo+512)
			}
		default:
			batch := make([]int, 16)
			for j := range batch {
				batch[j] = pick()
			}
			av, af := s.LookupBatch(batch)
			bv, bf := d.LookupBatch(batch)
			// Values of duplicate keys are "an arbitrary match" but the
			// two stores hold identical layouts, so even those agree.
			if !slices.Equal(af, bf) || !slices.Equal(av, bv) {
				t.Fatalf("op %d: LookupBatch differs", i)
			}
		}
		if ss := s.set.Load(); ss != cur {
			cur = ss
			rebalances++
			compare("after a rebalance")
		}
	}
	if rebalances == 0 {
		t.Fatal("the script never forced a rebalance")
	}
	if g := d.Generation(); int(g) != rebalances {
		t.Fatalf("durable store migrated %d times, in-memory store %d", g, rebalances)
	}
	compare("at the end")

	t.Run("absent delete logs nothing", func(t *testing.T) {
		before := d.WALRecords()
		if found, err := d.Delete(maxKey + 1); found || err != nil {
			t.Fatalf("Delete of an absent key = %v, %v", found, err)
		}
		if found, err := d.DeleteValue(keys[0], -1); found || err != nil {
			t.Fatalf("DeleteValue of an absent value = %v, %v", found, err)
		}
		if got := d.WALRecords(); got != before {
			t.Fatalf("WALRecords %d after two no-op deletes, want %d", got, before)
		}
	})
}

// TestEngineDifferentialFailedAppend is the differential test's white-box
// pin of the writer section's failure rule: a write whose log append
// fails publishes nothing — not the insert, not the delete — and poisons
// the store.
func TestEngineDifferentialFailedAppend(t *testing.T) {
	for name, write := range map[string]func(d *DurableSharded[int, int]) error{
		"Insert":      func(d *DurableSharded[int, int]) error { return d.Insert(5, 4) },
		"Delete":      func(d *DurableSharded[int, int]) error { _, err := d.Delete(5); return err },
		"DeleteValue": func(d *DurableSharded[int, int]) error { _, err := d.DeleteValue(5, 2); return err },
	} {
		t.Run(name, func(t *testing.T) {
			faulty := wal.NewFaultFS(wal.NewMemFS())
			d := openStore(t, faulty, pager.NewDisk(), 1)
			for _, v := range []int{1, 2, 3} {
				if err := d.Insert(5, v); err != nil {
					t.Fatal(err)
				}
			}
			each := func() []int {
				var vs []int
				d.Each(5, func(v int) bool { vs = append(vs, v); return true })
				return vs
			}
			want, wantLen := each(), d.Len()
			faulty.SetTrip(0) // the very next mutating FS op — the append — fails
			if err := write(d); !errors.Is(err, wal.ErrInjected) {
				t.Fatalf("write with a failing log = %v, want the injected fault", err)
			}
			if got := each(); !slices.Equal(got, want) || d.Len() != wantLen {
				t.Fatalf("write published despite its failed append: Each = %v (Len %d), want %v (Len %d)",
					got, d.Len(), want, wantLen)
			}
			if !errors.Is(d.Err(), wal.ErrInjected) {
				t.Fatalf("Err = %v, want the sticky injected fault", d.Err())
			}
		})
	}
}

// TestShardedLookupBatchLayers pins LookupBatch on both sharded stores
// against per-key Lookup over every delta shape a shard can be in: an
// active delta only (inline flushing, threshold not yet reached), a frozen
// layer beneath an active delta (async, worker slots held so the ladder
// stays put), and flushed — with duplicate keys, pending tombstones and
// value tombstones in the layers. The batches are the shapes the routing
// distinguishes: unsorted and straddling every fence, the same presorted,
// empty, and entirely below the first or above the last fence.
func TestShardedLookupBatchLayers(t *testing.T) {
	const n, flushAt = 6000, 64
	keys := make([]int, 0, n+n/50)
	for i := 0; i < n; i++ {
		keys = append(keys, i*7)
		if i%50 == 0 {
			keys = append(keys, i*7) // a duplicate pair in the base
		}
	}
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	build := func() *Tree[int, int] {
		tr, err := BulkLoad(keys, vals, Options{Error: 8})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, async := range []bool{false, true} {
		s, err := NewSharded(build(), 3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), build(), 3)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAutoCheckpoint(false)
		for name, e := range map[string]*shardEngine[int, int]{"Sharded": &s.shardEngine, "DurableSharded": &d.shardEngine} {
			e.SetRebalanceFactor(math.Inf(1)) // the fences, and the held slots, stay
			e.SetFlushEvery(flushAt)
			e.SetAsyncFlush(async)
			ss := e.set.Load()
			if len(ss.shards) != 3 {
				t.Fatalf("%s: %d shards, want 3", name, len(ss.shards))
			}
			writes := flushAt / 2 // stays in the active delta
			if async {
				writes = flushAt + flushAt/2 // one push, then an active delta
				for _, sh := range ss.shards {
					sh.flusher.Store(true)
				}
			}
			rng := rand.New(rand.NewSource(29))
			for si := range ss.shards {
				lo, hi := 0, n*7
				if si > 0 {
					lo = ss.bounds[si-1]
				}
				if si < len(ss.bounds) {
					hi = ss.bounds[si]
				}
				for i := 0; i < writes; i++ {
					k := lo + rng.Intn(hi-lo)
					op, v := byte(walOpInsert), i
					switch i % 4 {
					case 1:
						op, k = walOpDelete, k/7*7 // a stored key: a pending tombstone
					case 2:
						op, k, v = walOpDeleteValue, k/350*350, k/350*51 // the first of a duplicate pair
					case 3:
						k = k / 7 * 7 // a duplicate of a stored key
					}
					if k < lo {
						k = lo
					}
					if _, err := e.write(op, k, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			for si, sh := range ss.shards {
				lst := sh.state.Load()
				if lst.delta == nil || (len(lst.frozen) > 0) != async {
					t.Fatalf("%s async=%v: shard %d has %d frozen layers, active=%v", name, async, si, len(lst.frozen), lst.delta != nil)
				}
			}

			var straddle []int
			for _, b := range ss.bounds {
				straddle = append(straddle, b+7, b-1, b, b-7, b+1)
			}
			for i := 0; i < 300; i++ {
				straddle = append(straddle, rng.Intn(n*7+100)-50)
			}
			presorted := slices.Clone(straddle)
			slices.Sort(presorted)
			below := []int{ss.bounds[0] - 1, 0, -5, ss.bounds[0] - 7, 350}
			above := []int{n*7 + 3, ss.bounds[len(ss.bounds)-1], n * 7, ss.bounds[len(ss.bounds)-1] + 7}
			check := func(when string) {
				t.Helper()
				for _, batch := range [][]int{straddle, presorted, nil, below, above} {
					bv, bf := e.LookupBatch(batch)
					if len(bv) != len(batch) || len(bf) != len(batch) {
						t.Fatalf("%s %s: result lengths %d/%d for %d keys", name, when, len(bv), len(bf), len(batch))
					}
					for i, k := range batch {
						// A duplicate key's answer is "an arbitrary match":
						// any live value under k is right.
						live := false
						e.Each(k, func(v int) bool { live = live || v == bv[i]; return !live })
						if _, ok := e.Lookup(k); bf[i] != ok || (ok && !live) {
							t.Fatalf("%s %s: batch[%d] key %d = (%d,%v), Lookup found=%v, value live=%v",
								name, when, i, k, bv[i], bf[i], ok, live)
						}
					}
				}
			}
			check(fmt.Sprintf("async=%v layered", async))
			for _, sh := range ss.shards {
				sh.flusher.Store(false)
			}
			e.SyncFlush()
			check(fmt.Sprintf("async=%v flushed", async))
		}
		s.Close()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRebalanceCarriesPages pins what a rebalance moves: a forced
// rebalance of a 4-shard store cuts the shards' page chain at the new
// fences, so every page no new fence straddles reaches its new shard by
// identity and only the straddling ones are rebuilt — and the migration
// still commits and recovers the same content. It also pins the one
// observable difference from rebuilding the shards: a carried page keeps
// its decayed write counter, so the new set's ChunkLoads still report the
// writes of every old chunk whose pages all moved (rebuilt pages used to
// start at zero).
func TestRebalanceCarriesPages(t *testing.T) {
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, bumpyTree(t, 100_000), 4)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(d)
	// Skew the first shard, with duplicate runs long enough to spill across
	// the pages the folds cut.
	hi := d.Bounds()[0]
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		k := rng.Intn(hi)
		for dup := 0; dup < 1+i%24; dup++ {
			if err := d.Insert(k, -dup); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.SyncFlush()
	type span struct {
		id          uint64
		first, last int
	}
	var pages []span
	var loads []core.ChunkLoad[int]
	for _, tr := range shardTrees(d) {
		ids := tr.PageIDs()
		for ci := 0; ci < tr.NumChunks(); ci++ {
			for _, p := range tr.ChunkSnap(ci).Pages {
				first, last := p.Keys[0], p.Keys[len(p.Keys)-1]
				pages = append(pages, span{id: ids[0], first: first, last: last})
				ids = ids[1:]
			}
		}
		loads = append(loads, tr.ChunkLoads()...)
	}
	before, want := d.Bounds(), dump(d)
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	fences := d.Bounds()
	if slices.Equal(fences, before) {
		t.Fatalf("the skew did not move the fences %v", fences)
	}
	carried := map[uint64]bool{}
	var after uint64
	for _, tr := range shardTrees(d) {
		for _, id := range tr.PageIDs() {
			carried[id] = true
		}
		for _, l := range tr.ChunkLoads() {
			after += l.Writes
		}
	}
	straddlers := 0
	for _, p := range pages {
		i, _ := slices.BinarySearch(fences, p.first+1)
		straddles := i < len(fences) && fences[i] <= p.last
		if carried[p.id] == straddles {
			t.Fatalf("page [%d, %d] under fences %v: straddles %v, carried %v", p.first, p.last, fences, straddles, carried[p.id])
		}
		if straddles {
			straddlers++
		}
	}
	if straddlers == 0 || straddlers > len(fences) {
		t.Fatalf("%d of %d pages straddle the %d new fences; the test wants some, and a fence straddles at most one", straddlers, len(pages), len(fences))
	}
	var kept uint64
	at := 0
	for _, l := range loads {
		whole := true
		for _, p := range pages[at : at+l.Pages] {
			whole = whole && carried[p.id]
		}
		if whole {
			kept += l.Writes
		}
		at += l.Pages
	}
	if kept == 0 || after < kept {
		t.Fatalf("the new shards report %d writes, the wholly carried chunks held %d", after, kept)
	}
	if got := dump(d); !pairsEqual(got, want) {
		t.Fatalf("the rebalance changed the content: %d pairs, want %d", len(got), len(want))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, mem, dev, 4)
	defer re.Close()
	if got := re.Bounds(); !slices.Equal(got, fences) {
		t.Fatalf("recovered fences %v, want %v", got, fences)
	}
	if got := dump(re); !pairsEqual(got, want) {
		t.Fatalf("recovered %d pairs, want %d", len(got), len(want))
	}
}
