package fitingtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// These tests pin what the one sharded engine guarantees to both public
// types: the rebalance policy (one size trigger, which a pure-update
// workload never trips) and the routed write (identical outcomes with and
// without the durability plug).

// TestPureUpdatesNeverRebalance pins the one rebalance trigger: 100k
// alternating Insert/Delete of one key on a 4-shard store never move the
// total element count, so they publish no shard set, move no fence and, on
// a durable store, commit no migration.
func TestPureUpdatesNeverRebalance(t *testing.T) {
	const n = 400_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 16
	}
	build := func() *Tree[uint64, uint64] {
		tr, err := BulkLoad(keys, keys, Options{Error: 32})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	hot := keys[n/8] + 1 // inside the first shard, not a stored key
	run := func(t *testing.T, e *shardEngine[uint64, uint64]) {
		e.SetAsyncFlush(false)
		fences, cur := e.Bounds(), e.set.Load()
		for i := 0; i < 100_000; i++ {
			op := byte(walOpInsert)
			if i%2 == 1 {
				op = walOpDelete
			}
			if ok, err := e.write(op, hot, 1); err != nil || !ok {
				t.Fatalf("write %d: ok %v, err %v", i, ok, err)
			}
			if e.set.Load() != cur {
				t.Fatalf("write %d published a new shard set", i)
			}
		}
		if got := e.Bounds(); !slices.Equal(got, fences) {
			t.Fatalf("fences moved to %v from %v", got, fences)
		}
		if e.Len() != n {
			t.Fatalf("Len = %d, want %d", e.Len(), n)
		}
	}
	t.Run("memory", func(t *testing.T) {
		s, err := NewSharded(build(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		run(t, &s.shardEngine)
	})
	t.Run("durable", func(t *testing.T) {
		d, err := CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), build(), 4)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAutoCheckpoint(false)
		d.SetSyncEvery(256)
		gen := d.Generation()
		run(t, &d.shardEngine)
		if g := d.Generation(); g != gen {
			t.Fatalf("generation %d after the updates, want %d", g, gen)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
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
		before := d.Stats().WALRecords
		if found, err := d.Delete(maxKey + 1); found || err != nil {
			t.Fatalf("Delete of an absent key = %v, %v", found, err)
		}
		if found, err := d.DeleteValue(keys[0], -1); found || err != nil {
			t.Fatalf("DeleteValue of an absent value = %v, %v", found, err)
		}
		if got := d.Stats().WALRecords; got != before {
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
// still commits and recovers the same content.
func TestRebalanceCarriesPages(t *testing.T) {
	// Bumpy keys (many small pages) and then a linear run (one page), which
	// the appends below grow into one page too heavy for any page-start
	// fences to balance: the rebalance falls back to element quantiles,
	// whose fences land inside pages.
	const bumpy, linear, appended = 40_000, 60_000, 40_000
	keys := make([]int, 0, bumpy+linear)
	seed, k := uint64(7), 0
	for i := 0; i < bumpy+linear; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		switch {
		case i >= bumpy:
			k += 4
		case i%37 == 0:
			k += 1 + int((seed>>33)%100000)
		default:
			k += 1 + int(seed%3)
		}
		keys = append(keys, k)
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
	quiesce(d)
	d.SetFlushEvery(appended) // one fold: the last shard's page stays one line
	for i := 1; i <= appended; i++ {
		if err := d.Insert(k+4*i, -i); err != nil {
			t.Fatal(err)
		}
	}
	d.SyncFlush()
	type span struct {
		id          uint64
		first, last int
	}
	var pages []span
	for _, tr := range shardTrees(d) {
		ids := tr.PageIDs()
		for ci := 0; ci < tr.NumChunks(); ci++ {
			for _, p := range tr.ChunkSnap(ci).Pages {
				first, last := p.Keys[0], p.Keys[len(p.Keys)-1]
				pages = append(pages, span{id: ids[0], first: first, last: last})
				ids = ids[1:]
			}
		}
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
	for _, tr := range shardTrees(d) {
		for _, id := range tr.PageIDs() {
			carried[id] = true
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

// TestShardedFlushSettingsShared pins the one home of a sharded store's
// flush settings: every shard, current and built by a rebalance, reads its
// engine's value, so one SetAsyncFlush reaches all of them; and a
// rebalance drains the outgoing shards without switching async off, since
// the flag it would switch is the one the incoming shards read.
func TestShardedFlushSettingsShared(t *testing.T) {
	keys := make([]int, 4000)
	for i := range keys {
		keys[i] = 2 * i
	}
	build := func() *Tree[int, int] {
		tr, err := BulkLoad(keys, keys, Options{Error: 16})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	s, err := NewSharded(build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for name, e := range map[string]*shardEngine[int, int]{"memory": &s.shardEngine, "durable": &d.shardEngine} {
		shared := func(when string) *shardSet[int, int] {
			t.Helper()
			ss := e.set.Load()
			for i, sh := range ss.shards {
				if sh.flushSettings != &e.flushSettings {
					t.Fatalf("%s %s: shard %d has flush settings of its own", name, when, i)
				}
			}
			return ss
		}
		e.SetAsyncFlush(true)
		e.SetFlushEvery(8)
		for i := 0; i < 2000; i++ {
			if _, err := e.write(walOpInsert, 2*i+1, i); err != nil {
				t.Fatal(err)
			}
		}
		old := shared("after load")
		if err := e.rebalance(true); err != nil {
			t.Fatal(err)
		}
		if e.set.Load() == old {
			t.Fatalf("%s: the forced rebalance published no new set", name)
		}
		shared("after rebalance")
		if e.asyncOff.Load() {
			t.Fatalf("%s: the rebalance switched async flushing off", name)
		}
		for i, sh := range old.shards {
			if st := sh.state.Load(); len(st.frozen) > 0 || st.delta != nil || sh.flusher.Load() {
				t.Fatalf("%s: retired shard %d not drained (%d frozen, worker live %v)",
					name, i, len(st.frozen), sh.flusher.Load())
			}
		}
		e.SetAsyncFlush(false)
		for i, sh := range e.set.Load().shards {
			if !sh.asyncOff.Load() {
				t.Fatalf("%s: SetAsyncFlush(false) did not reach shard %d", name, i)
			}
		}
	}
}
