package fitingtree

// Durability with the frozen merge ladder engaged. In the crash matrices'
// ladder mode (matrixStore.ladder, durable_test.go) every worker slot is
// held and pumpLadder drives the compaction scheduler by hand between
// scripted ops, so every WAL and device fault lands while the ladder
// holds stacked layers that compactions keep rewriting — none of which
// must ever matter to recovery, because compactions are
// content-preserving and only acknowledged WAL records are durable state.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// pumpLadder runs compaction-scheduler rounds by hand: one round whenever
// at least two layers are stacked (keeping a compaction in flight across
// the script), then however many more it takes to bring the ladder back
// below capacity so the next trip pushes instead of absorbing. Returns
// the number of rounds run.
func pumpLadder(o *Optimistic[int, int]) int {
	rounds := 0
	step := func() bool {
		st := o.state.Load()
		if len(st.frozen) < 2 {
			return false
		}
		if i := compactPick(st.frozen, o.flushAt.Load()); i >= 0 {
			o.compactPair(st, i)
		} else {
			o.foldBottom(st)
		}
		rounds++
		return true
	}
	step()
	for len(o.state.Load().frozen) >= maxFrozenLayers {
		if !step() {
			break
		}
	}
	return rounds
}

// TestRecoveryBatchedReplay pins the replay restructure: a long
// checkpoint-free WAL tail must be recovered as one sorted batch — the
// shard's one frozen layer, folded by its first flush — not replayed one
// record at a time. The folded tree's own maintenance counters are the
// witness — a record-at-a-time replay scores one merge per record, the
// batched fold at most one re-segmentation pass per chunk.
func TestRecoveryBatchedReplay(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)

	const records = 640
	m := &dmodel{}
	for i := 0; i < records; i++ {
		k := (i * 7) % 97 // heavy duplication across a small keyspace
		if i%5 == 4 {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
			m.delete(k)
		} else {
			if err := d.Insert(k, k*31); err != nil { // same value per key: set equality
				t.Fatal(err)
			}
			m.insert(k, k*31)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash() // no checkpoint ever ran: recovery is pure tail replay

	rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("batched replay recovered the wrong content")
	}
	// No checkpoint ever ran, so the opened base tree is empty and the
	// whole tail waits in one layer; the witness below reads its fold.
	if s := rec.set.Load().shards[0].Stats(); s.FrozenLayers != 1 {
		t.Fatalf("opened shard holds %d frozen layers, want the tail as 1", s.FrozenLayers)
	}
	rec.SyncFlush()
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("the tail fold changed the recovered content")
	}
	tree := shardTrees(rec)[0]
	c := tree.Counters()
	chunks := len(tree.ChunkIDs())
	if c.Merges > chunks {
		t.Fatalf("replay of %d records cost %d merges over %d chunks: tail not batched", records, c.Merges, chunks)
	}
	if c.Inserts != 0 && c.Inserts < 97-20 {
		t.Fatalf("replayed tree counters implausible: %+v", c)
	}
}

// TestRecoveryDefersTailFold pins what an open hands over: each shard with
// a WAL tail opens holding the checkpoint tree and the composed tail as its
// one frozen layer, reads see the tail through that layer, the first flush
// folds it into exactly base.MergeCOW(tail), and a Close cuts it so the
// next open finds no tail at all.
func TestRecoveryDefersTailFold(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 30_000
			mem := wal.NewMemFS()
			dev := pager.NewDisk()
			keys := make([]int, n)
			m := &dmodel{}
			for i := range keys {
				keys[i] = i * 10
				m.pairs = append(m.pairs, [2]int{keys[i], keys[i]})
			}
			tree, err := BulkLoad(keys, keys, Options{})
			if err != nil {
				t.Fatal(err)
			}
			d, err := CreateDurableSharded(mem, dev, tree, shards)
			if err != nil {
				t.Fatal(err)
			}
			d.SetAutoCheckpoint(false)
			d.SetAsyncFlush(false)
			d.SetRebalanceFactor(math.Inf(1))
			if d.Shards() != shards {
				t.Fatalf("the store has %d shards, want %d", d.Shards(), shards)
			}

			// tail is the test's own compose of the logged ops: per key, the
			// still-pending insert values and the tombstones left over.
			type entry struct {
				adds  []int
				tombs int
			}
			tail := map[int]*entry{}
			at := func(k int) *entry {
				if tail[k] == nil {
					tail[k] = &entry{}
				}
				return tail[k]
			}
			insert := func(k, v int) {
				if err := d.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				m.insert(k, v)
				e := at(k)
				e.adds = append(e.adds, v)
			}
			del := func(k int) {
				if ok, err := d.Delete(k); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", k, ok, err)
				}
				m.delete(k)
				if e := at(k); len(e.adds) > 0 {
					e.adds = e.adds[:len(e.adds)-1]
				} else {
					e.tombs++
				}
			}
			delValue := func(k, v int) {
				if ok, err := d.DeleteValue(k, v); err != nil || !ok {
					t.Fatalf("DeleteValue(%d, %d) = %v, %v", k, v, ok, err)
				}
				for i, p := range m.pairs {
					if p == [2]int{k, v} {
						m.pairs = append(m.pairs[:i:i], m.pairs[i+1:]...)
						break
					}
				}
				e := at(k)
				for j := len(e.adds) - 1; j >= 0; j-- {
					if e.adds[j] == v {
						e.adds = append(e.adds[:j:j], e.adds[j+1:]...)
						return
					}
				}
				e.tombs++
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			for i := 0; i < 600; i++ {
				k := keys[rng.Intn(n)]
				if tail[k] != nil || tail[k+5] != nil {
					continue // one scenario per key keeps the model's victims exact
				}
				switch i % 4 {
				case 0: // a fresh key, sometimes deleted again
					insert(k+5, k+5)
					if i%8 == 0 {
						del(k + 5)
					}
				case 1: // an anonymous delete of a checkpointed key
					del(k)
				case 2: // value deletes of duplicates: one consumes, one tombstones
					insert(k, k+1)
					insert(k, k+2)
					delValue(k, k+1)
					delValue(k, k)
				case 3: // an anonymous delete after a value delete: the list form
					insert(k, k+1)
					delValue(k, k)
					del(k)
				}
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			mem.Crash() // the first facade is abandoned: the tail is all it left

			rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
			if err != nil {
				t.Fatal(err)
			}
			rec.SetAutoCheckpoint(false)
			set := rec.set.Load()
			opened := make([]*ostate[int, int], len(set.shards))
			want := make([]int, len(set.shards))
			for k, e := range tail {
				want[set.shardFor(k)] += len(e.adds) + e.tombs
			}
			for i, sh := range set.shards {
				opened[i] = sh.state.Load()
				st := sh.Stats()
				if st.FrozenLayers != 1 || st.LayerPending[0] != want[i] {
					t.Fatalf("shard %d opened with %d frozen layers pending %v, want the tail as 1 layer of %d",
						i, st.FrozenLayers, st.LayerPending, want[i])
				}
			}
			if !pairsEqual(dump(rec), m.pairs) {
				t.Fatal("the opened store reads the wrong content")
			}
			size := rec.Len()
			if size != len(m.pairs) {
				t.Fatalf("the opened store counts %d elements, want %d", size, len(m.pairs))
			}
			rec.SyncFlush()
			if got := rec.Len(); got != size {
				t.Fatalf("the tail fold moved Len from %d to %d", size, got)
			}
			if !pairsEqual(dump(rec), m.pairs) {
				t.Fatal("the tail fold changed the content")
			}
			for i, tr := range shardTrees(rec) {
				folded := opened[i].tree.MergeCOW(opened[i].frozen[0].ops())
				if !reflect.DeepEqual(chunkSnaps(tr), chunkSnaps(folded)) {
					t.Fatalf("shard %d: the first flush did not fold the tail into base.MergeCOW(tail)", i)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}

			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			for i, ws := range again.walStats {
				if ws.Records != 0 {
					t.Fatalf("shard %d: the reopen after Close found %d tail records", i, ws.Records)
				}
			}
			for i, sh := range again.set.Load().shards {
				if fl := sh.Stats().FrozenLayers; fl != 0 {
					t.Fatalf("shard %d: the reopen after Close holds %d frozen layers", i, fl)
				}
			}
			if !pairsEqual(dump(again), m.pairs) {
				t.Fatal("the reopen after Close reads the wrong content")
			}
		})
	}
}

// TestDurableLadderCheckpointStress races a single durable writer against
// the live background compactor, the auto-checkpointer, and concurrent
// readers (run with -race), then closes and reopens: the recovered
// content must equal the model exactly — every acknowledged write
// survives whatever interleaving of pushes, compactions, folds and
// checkpoints occurred.
func TestDurableLadderCheckpointStress(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAsyncFlush(true)
	d.SetFlushEvery(16)
	d.SetSyncEvery(8)
	d.SetAutoCheckpoint(true)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := rng.Intn(400)
			d.Lookup(k)
			d.Each(k, func(int) bool { return true })
			if rng.Intn(16) == 0 {
				d.AscendRange(0, 1<<30, func(int, int) bool { return true })
				d.Stats()
			}
		}
	}()

	m := &dmodel{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4000; i++ {
		k := rng.Intn(400)
		if rng.Intn(4) == 0 {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
			m.delete(k)
		} else {
			if err := d.Insert(k, k*31); err != nil { // same value per key
				t.Fatal(err)
			}
			m.insert(k, k*31)
		}
	}
	close(stop)
	readers.Wait()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(dump(d), m.pairs) {
		t.Fatal("live content diverged from the model")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("recovered content diverged from the model")
	}
}
