package fitingtree

// Durability with the frozen merge ladder engaged. In the crash matrices'
// ladder mode (matrixStore.ladder, durable_test.go) every worker slot is
// held and pumpLadder drives the compaction scheduler by hand between
// scripted ops, so every WAL and device fault lands while the ladder
// holds stacked layers that compactions keep rewriting — none of which
// must ever matter to recovery, because compactions are
// content-preserving and only acknowledged WAL records are durable state.

import (
	"math/rand"
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
// checkpoint-free WAL tail must be folded into the base tree as one
// sorted batch, not replayed one record at a time. The recovered tree's
// own maintenance counters are the witness — a record-at-a-time replay
// scores one merge per record, the batched fold at most one
// re-segmentation pass per chunk.
func TestRecoveryBatchedReplay(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
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

	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("batched replay recovered the wrong content")
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

// TestDurableLadderCheckpointStress races a single durable writer against
// the live background compactor, the auto-checkpointer, and concurrent
// readers (run with -race), then closes and reopens: the recovered
// content must equal the model exactly — every acknowledged write
// survives whatever interleaving of pushes, compactions, folds and
// checkpoints occurred.
func TestDurableLadderCheckpointStress(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
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

	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("recovered content diverged from the model")
	}
}
