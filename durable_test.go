package fitingtree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// --- model ---------------------------------------------------------------

// dmodel is the reference state: a sorted multiset of (key, value) pairs.
// The crash tests give duplicate keys identical values, so set equality is
// well-defined regardless of which duplicate a delete removes.
type dmodel struct {
	pairs [][2]int
}

func (m *dmodel) insert(k, v int) {
	m.pairs = append(m.pairs, [2]int{k, v})
	sort.Slice(m.pairs, func(a, b int) bool {
		if m.pairs[a][0] != m.pairs[b][0] {
			return m.pairs[a][0] < m.pairs[b][0]
		}
		return m.pairs[a][1] < m.pairs[b][1]
	})
}

func (m *dmodel) delete(k int) {
	for i, p := range m.pairs {
		if p[0] == k {
			m.pairs = append(m.pairs[:i:i], m.pairs[i+1:]...)
			return
		}
	}
}

func (m *dmodel) clone() *dmodel {
	return &dmodel{pairs: append([][2]int(nil), m.pairs...)}
}

// dump extracts a store's full content in the model's normalized form.
func dump(d *DurableSharded[int, int]) [][2]int {
	var pairs [][2]int
	d.AscendRange(-1<<62, 1<<62, func(k, v int) bool {
		pairs = append(pairs, [2]int{k, v})
		return true
	})
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	return pairs
}

func pairsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shardTrees returns every shard's published base tree, in fence order.
func shardTrees(d *DurableSharded[int, int]) []*Tree[int, int] {
	opts := d.set.Load().shards
	trees := make([]*Tree[int, int], len(opts))
	for i, o := range opts {
		trees[i] = o.state.Load().tree
	}
	return trees
}

// chunkSnaps returns the image of every chunk of tr: each page's segment,
// data, buffer, deletes and recorded bound.
func chunkSnaps[K Key, V any](tr *Tree[K, V]) []core.ChunkSnap[K, V] {
	snaps := make([]core.ChunkSnap[K, V], tr.NumChunks())
	for i := range snaps {
		snaps[i] = tr.ChunkSnap(i)
	}
	return snaps
}

// --- scenario ------------------------------------------------------------

// dOp is one scripted operation of the crash scenario.
type dOp struct {
	del bool
	k   int
	v   int
}

// crashScript is a fixed op sequence that scatters keys across the whole
// range (so every shard of a multi-shard store sees traffic), with
// duplicates (same value per key), deletes, interleaved checkpoints, and
// one explicit rebalance in the middle.
func crashScript() (ops []dOp, ckptAt, rebalAt map[int]bool) {
	// Stride 997 over a 4096-key space: adjacent ops land on far-apart
	// keys, exercising every shard in turn.
	for i := 0; i < 40; i++ {
		k := (i * 997) % 4096
		ops = append(ops, dOp{k: k, v: k * 10})
		if i%7 == 0 {
			ops = append(ops, dOp{k: k, v: k * 10}) // duplicate, same value
		}
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, dOp{del: true, k: (i * 3 * 997) % 4096})
	}
	ckptAt = map[int]bool{11: true, 37: true}
	rebalAt = map[int]bool{24: true}
	return ops, ckptAt, rebalAt
}

// matrixStore configures the store a crash-matrix trial runs against.
type matrixStore struct {
	shards int
	// ladder piles frozen layers up deterministically — async flush with
	// every worker slot held, a small trip threshold, depth 3 — so the
	// script's scheduler pump keeps compactions in flight at every fault
	// site. Ladder runs skip the script's rebalance: the shards it builds
	// would start live workers racing the pump.
	ladder bool
}

// quiesce puts a store into the crash matrix's deterministic mode: no
// background checkpoints, no async flush, no skew-triggered migrations —
// every fault site is reached by the script alone.
func quiesce(d *DurableSharded[int, int]) {
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetFlushEvery(8)
	d.SetRebalanceFactor(math.Inf(1))
}

// openStore opens a quiesced store over whatever fsys and dev hold.
func openStore(t testing.TB, fsys wal.FS, dev pager.Device, shards int) *DurableSharded[int, int] {
	t.Helper()
	d, err := OpenDurableSharded[int, int](fsys, dev, Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(d)
	return d
}

// open builds the trial's store and the model of its initial content. A
// one-shard store starts fresh and empty, so its matrices also cover
// recovery with no committed checkpoint; a fresh open always starts with
// one shard, so a multi-shard store is bulk-created over seed keys spaced
// to interleave with the script's stride (values follow the script's
// k*10 convention so duplicate deletes stay value-agnostic).
func (ms matrixStore) open(t testing.TB, fsys wal.FS, dev pager.Device) (*DurableSharded[int, int], *dmodel) {
	t.Helper()
	var d *DurableSharded[int, int]
	m := &dmodel{}
	if ms.shards == 1 {
		d = openStore(t, fsys, dev, 1)
	} else {
		keys := make([]int, 256)
		vals := make([]int, len(keys))
		for i := range keys {
			keys[i] = i * 16
			vals[i] = keys[i] * 10
			m.insert(keys[i], vals[i])
		}
		tree, err := BulkLoad(keys, vals, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d, err = CreateDurableSharded(fsys, dev, tree, ms.shards); err != nil {
			t.Fatal(err)
		}
		quiesce(d)
	}
	if n := d.Shards(); n != ms.shards {
		t.Fatalf("store has %d shards, want %d", n, ms.shards)
	}
	if ms.ladder {
		d.SetAsyncFlush(true)
		d.SetFlushEvery(4)
		for _, o := range d.set.Load().shards {
			o.flusher.Store(true) // the script is the scheduler
		}
	}
	return d, m
}

// script returns the crash script as this store runs it.
func (ms matrixStore) script() (ops []dOp, ckptAt, rebalAt map[int]bool) {
	ops, ckptAt, rebalAt = crashScript()
	if ms.ladder {
		rebalAt = nil
	}
	return ops, ckptAt, rebalAt
}

// runScript drives d through the script from the initial model state m,
// stopping at the first error (an injected fault poisons everything after
// it anyway). A compaction-scheduler pump runs before every op — a no-op
// unless the store is in ladder mode — so fault sites interleave with
// layer pushes, compactions and folds. It returns the number of ops
// acknowledged (nil error with sync-every-1), the model state after every
// prefix, and the scheduler rounds run. Checkpoint and Rebalance failures
// are ignored: neither is an acknowledgment, and the WAL still covers the
// data either way.
func runScript(d *DurableSharded[int, int], m *dmodel, ops []dOp, ckptAt, rebalAt map[int]bool) (acked int, states []*dmodel, rounds int) {
	states = append(states, m.clone())
	for i, op := range ops {
		for _, o := range d.set.Load().shards {
			rounds += pumpLadder(o)
		}
		if ckptAt[i] {
			d.Checkpoint() // folds every ladder off-lock for the snapshot
		}
		if rebalAt[i] {
			d.Rebalance()
		}
		var err error
		if op.del {
			_, err = d.Delete(op.k)
			m.delete(op.k)
		} else {
			err = d.Insert(op.k, op.v)
			m.insert(op.k, op.v)
		}
		states = append(states, m.clone())
		if err != nil {
			return acked, states[:i+2], rounds
		}
		acked = i + 1
	}
	return acked, states, rounds
}

// verifyRecovery reopens the (injector-free) store and asserts the
// recovered state equals the model after some prefix of at least the
// acknowledged ops, both as opened (the WAL tail still a frozen layer) and
// after SyncFlush has folded that tail into the shard trees.
func verifyRecovery(t *testing.T, label string, fsys wal.FS, dev pager.Device, shards, acked int, states []*dmodel) {
	t.Helper()
	rec, err := OpenDurableSharded[int, int](fsys, dev, Options{}, shards)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	rec.SetAutoCheckpoint(false)
	m := verifyRecoveredState(t, label+" (opened)", rec, acked, states)
	rec.SyncFlush()
	if flushed := verifyRecoveredState(t, label+" (flushed)", rec, acked, states); flushed != m {
		t.Fatalf("%s: the tail fold changed the recovered prefix from %d to %d ops", label, m, flushed)
	}
}

// verifyRecoveredState checks rec's shard trees structurally and returns
// the op prefix, at least acked long, whose model state rec holds.
func verifyRecoveredState(t *testing.T, label string, rec *DurableSharded[int, int], acked int, states []*dmodel) int {
	t.Helper()
	// Structural check first: every recovered page must respect the tree's
	// error bound widened by its deletes, so a checkpoint survives any fault
	// trip with its layout intact.
	for i, tree := range shardTrees(rec) {
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: recovered shard %d invariants: %v", label, i, err)
		}
	}
	got := dump(rec)
	for m := len(states) - 1; m >= 0; m-- {
		if pairsEqual(got, states[m].pairs) {
			if m < acked {
				t.Fatalf("%s: recovered only %d ops but %d were acknowledged", label, m, acked)
			}
			return m
		}
	}
	t.Fatalf("%s: recovered state (%d pairs) matches no op prefix (acked %d)", label, len(got), acked)
	return -1
}

// --- crash matrix --------------------------------------------------------

// faultCounter is the injector side of wal.FaultFS and pager.FaultDevice.
type faultCounter interface {
	SetTrip(n int)
	Ops() int
}

// probeMatrix runs the script once on a healthy store and returns how many
// fault sites fc saw (reset after the store was built: only script-time
// sites matter). A ladder run must really have compactions in flight, or
// its matrix would be vacuous.
func probeMatrix(t *testing.T, ms matrixStore, fsys wal.FS, dev pager.Device, fc faultCounter) int {
	t.Helper()
	ops, ckptAt, rebalAt := ms.script()
	d, m := ms.open(t, fsys, dev)
	fc.SetTrip(-1)
	acked, _, rounds := runScript(d, m, ops, ckptAt, rebalAt)
	if acked != len(ops) {
		t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
	}
	if ms.ladder && rounds == 0 {
		t.Fatal("probe run never ran a compaction round: the matrix would be vacuous")
	}
	return fc.Ops()
}

// crashMatrixWAL kills the whole log file system at every mutating
// operation of the script — mid-append on any shard (torn final record),
// mid-sync, mid-truncate, mid-intent, mid-migration — then crashes away
// unsynced bytes and asserts prefix-consistent recovery with no
// acknowledged write lost.
func crashMatrixWAL(t *testing.T, ms matrixStore) {
	ops, ckptAt, rebalAt := ms.script()
	probeFS := wal.NewFaultFS(wal.NewMemFS())
	sites := probeMatrix(t, ms, probeFS, pager.NewDisk(), probeFS)
	if sites < 2*len(ops) {
		t.Fatalf("probe counted only %d WAL fault sites", sites)
	}
	for trip := 0; trip < sites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			faulty := wal.NewFaultFS(mem)
			dev := pager.NewDisk()
			d, m := ms.open(t, faulty, dev)
			faulty.SetTrip(trip)
			acked, states, _ := runScript(d, m, ops, ckptAt, rebalAt)
			mem.Crash() // lose every byte not covered by a sync
			verifyRecovery(t, "wal crash", mem, dev, ms.shards, acked, states)
		})
	}
}

// crashMatrixCheckpoint kills the checkpoint device at every page write
// and sync — mid-blob, mid-manifest, mid-superblock, and anywhere inside
// the rebalance's committing cut — and asserts the previous committed
// epoch (or a WAL-only rebuild when none committed) plus the intact logs
// still recover every acknowledged write.
func crashMatrixCheckpoint(t *testing.T, ms matrixStore) {
	ops, ckptAt, rebalAt := ms.script()
	probeDev := pager.NewFaultDevice(pager.NewDisk())
	sites := probeMatrix(t, ms, wal.NewMemFS(), probeDev, probeDev)
	if sites == 0 {
		t.Fatal("probe counted no device fault sites")
	}
	for trip := 0; trip < sites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			inner := pager.NewDisk()
			faulty := pager.NewFaultDevice(inner)
			d, m := ms.open(t, mem, faulty)
			faulty.SetTrip(trip)
			acked, states, _ := runScript(d, m, ops, ckptAt, rebalAt)
			mem.Crash()
			// Recovery reads the raw device: whatever the torn checkpoint
			// left behind must be ignored in favor of the last committed
			// superblock.
			verifyRecovery(t, "ckpt crash", mem, inner, ms.shards, acked, states)
		})
	}
}

// The WAL-fault and checkpoint-fault matrices, inline-flush and with the
// frozen merge ladder engaged, at one shard and at three.
func TestCrashMatrixWAL(t *testing.T)        { crashMatrixWAL(t, matrixStore{shards: 1}) }
func TestShardedCrashMatrixWAL(t *testing.T) { crashMatrixWAL(t, matrixStore{shards: 3}) }
func TestCrashMatrixWALLadder(t *testing.T)  { crashMatrixWAL(t, matrixStore{shards: 1, ladder: true}) }
func TestShardedCrashMatrixWALLadder(t *testing.T) {
	crashMatrixWAL(t, matrixStore{shards: 3, ladder: true})
}
func TestCrashMatrixCheckpoint(t *testing.T)        { crashMatrixCheckpoint(t, matrixStore{shards: 1}) }
func TestShardedCrashMatrixCheckpoint(t *testing.T) { crashMatrixCheckpoint(t, matrixStore{shards: 3}) }
func TestCrashMatrixCheckpointLadder(t *testing.T) {
	crashMatrixCheckpoint(t, matrixStore{shards: 1, ladder: true})
}
func TestShardedCrashMatrixCheckpointLadder(t *testing.T) {
	crashMatrixCheckpoint(t, matrixStore{shards: 3, ladder: true})
}

// TestRecoveryRejectsCorruptedBlobs flips one byte in a committed
// checkpoint blob and asserts recovery reports an error instead of
// loading garbage.
func TestRecoveryRejectsCorruptedBlobs(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for i := 0; i < 200; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sup, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no superblock after checkpoint: %v", err)
	}
	// Corrupt one byte of the manifest chain's first page payload.
	buf := make([]byte, pager.PageSize)
	if err := dev.Read(sup.Manifest, buf); err != nil {
		t.Fatal(err)
	}
	buf[pager.PageSize/2] ^= 0xFF
	if err := dev.Write(sup.Manifest, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1); err == nil {
		t.Fatal("recovery loaded a corrupted checkpoint without error")
	}
}

// TestIncrementalCheckpointIsODirty checks the headline property: a
// checkpoint after a small batch of writes re-serializes only the chunks
// that batch dirtied, not the whole tree.
func TestIncrementalCheckpointIsODirty(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	keys := make([]int, 200_000)
	vals := make([]int, len(keys))
	seed := uint64(7)
	k := 0
	for i := range keys {
		seed = seed*6364136223846793005 + 1442695040888963407
		if i%37 == 0 {
			k += 1 + int((seed>>33)%100000)
		} else {
			k += int(seed % 3)
		}
		keys[i], vals[i] = k, i
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 32})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(mem, dev, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)

	// A tight batch of writes dirties a handful of chunks.
	for i := 0; i < 50; i++ {
		if err := d.Insert(keys[1000]+i, -i); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	total := stats.ChunksWritten + stats.ChunksReused
	if total < 10 {
		t.Fatalf("tree too small for the test: %d chunks", total)
	}
	if stats.ChunksWritten*4 > total {
		t.Fatalf("checkpoint wrote %d of %d chunks for a 50-key batch — not incremental", stats.ChunksWritten, total)
	}
	if stats.ChunksReused == 0 {
		t.Fatal("checkpoint reused no chunks")
	}
	// And the WAL prefix is gone.
	if n := d.Stats().WALRecords; n != 0 {
		t.Fatalf("WAL holds %d records after checkpoint", n)
	}
}

// TestDurableGroupCommit checks SetSyncEvery batching: unacked writes die
// in a crash, writes covered by the explicit Sync barrier survive.
func TestDurableGroupCommit(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetSyncEvery(64)
	for i := 0; i < 10; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Len() != 10 {
		t.Fatalf("recovered %d elements, want the 10 synced ones", rec.Len())
	}
	for i := 0; i < 10; i++ {
		if _, ok := rec.Lookup(i); !ok {
			t.Fatalf("synced key %d lost", i)
		}
	}
}

// TestDurableStringValues exercises the codec's string fast path and the
// gob fallback (struct values) end to end.
func TestDurableStringValues(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[uint32, string](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for i := uint32(0); i < 100; i++ {
		if err := d.Insert(i, fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint32(100); i < 150; i++ {
		if err := d.Insert(i, fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := OpenDurableSharded[uint32, string](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	for i := uint32(0); i < 150; i++ {
		if v, ok := rec.Lookup(i); !ok || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d: %q %v", i, v, ok)
		}
	}

	type rec2 struct{ A, B int }
	mem2 := wal.NewMemFS()
	d2, err := OpenDurableSharded[int, rec2](mem2, pager.NewDisk(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2.SetAutoCheckpoint(false)
	if err := d2.Insert(1, rec2{A: 7, B: 9}); err != nil {
		t.Fatal(err)
	}
	mem3 := wal.NewMemFS()
	for _, name := range mem2.Names() {
		mem3.SetBytes(name, mem2.Bytes(name))
	}
	r2, err := OpenDurableSharded[int, rec2](mem3, pager.NewDisk(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2.SetAutoCheckpoint(false)
	if v, ok := r2.Lookup(1); !ok || v != (rec2{A: 7, B: 9}) {
		t.Fatalf("gob value round trip: %+v %v", v, ok)
	}
}

// concurrentStress runs parallel writers on disjoint key ranges, latch-free
// readers, and the background checkpointer together (the -race target),
// then verifies a final recovery sees every write.
func concurrentStress(t *testing.T, shards, writers, perWriter int) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFlushEvery(256)
	d.SetSyncEvery(16)
	n := writers * perWriter
	var readers, wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Lookup(n / 2)
				d.AscendRange(0, n, func(int, int) bool { return true })
				d.Stats()
			}
		}()
	}
	werrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter && werrs[w] == nil; i++ {
				k := w*perWriter + i
				werrs[w] = d.Insert(k, k)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for _, err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := openStore(t, mem, dev, shards)
	if rec.Len() != n {
		t.Fatalf("recovered %d elements, want %d", rec.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		if v, ok := rec.Lookup(i); !ok || v != i {
			t.Fatalf("key %d: %v %v", i, v, ok)
		}
	}
	// Close ran a final checkpoint, so recovery should have replayed an
	// empty (or truncated) tail.
	if n := rec.Stats().WALRecords; n != 0 {
		t.Fatalf("WAL holds %d records after Close", n)
	}
}

func TestDurableConcurrentStress(t *testing.T)        { concurrentStress(t, 1, 1, 4000) }
func TestDurableShardedConcurrentStress(t *testing.T) { concurrentStress(t, 4, 4, 2000) }

// TestCreateDurableSkipsWAL checks bulk import: CreateDurable writes a
// checkpoint directly and leaves the WAL empty.
func TestCreateDurableSkipsWAL(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	keys := []int{1, 5, 9, 12, 40}
	vals := []int{10, 50, 90, 120, 400}
	tree, err := BulkLoad(keys, vals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(mem, dev, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().WALRecords; n != 0 {
		t.Fatalf("bulk import appended %d WAL records", n)
	}
	if err := d.Insert(6, 60); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Len() != 6 {
		t.Fatalf("recovered %d elements, want 6", rec.Len())
	}
	if v, ok := rec.Lookup(6); !ok || v != 60 {
		t.Fatalf("post-import insert lost: %v %v", v, ok)
	}
}

// stickyError pins the poison protocol end to end: once a WAL write or
// sync fails, every subsequent write of every kind — on any shard —
// returns the same error (an acknowledged write that replay cannot see
// must never happen), Err is sticky, Close skips the checkpoint but stays
// safe, and recovery sees exactly the acknowledged prefix.
func stickyError(t *testing.T, shards int) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	dev := pager.NewDisk()
	d, m := matrixStore{shards: shards}.open(t, faulty, dev)
	for i := 0; i < 25; i++ {
		k := (i * 997) % 4096
		if err := d.Insert(k, i); err != nil {
			t.Fatal(err)
		}
		m.insert(k, i)
	}
	// Trip the next mutating FS op: the 26th insert's append fails mid-
	// write (a torn record lands in the log).
	faulty.SetTrip(0)
	werr := d.Insert(100, 100)
	if !errors.Is(werr, wal.ErrInjected) {
		t.Fatalf("tripped insert error = %v", werr)
	}
	for i := 0; i < 5; i++ {
		if err := d.Insert((i*131)%4096, i); !errors.Is(err, werr) {
			t.Fatalf("insert %d after poison = %v, want sticky %v", i, err, werr)
		}
		if _, err := d.Delete((i * 997) % 4096); !errors.Is(err, werr) {
			t.Fatalf("delete %d after poison = %v", i, err)
		}
		if _, err := d.DeleteValue((i*997)%4096, i); !errors.Is(err, werr) {
			t.Fatalf("delete-value %d after poison = %v", i, err)
		}
	}
	if err := d.Err(); !errors.Is(err, werr) {
		t.Fatalf("Err() = %v, want sticky %v", err, werr)
	}
	// Reads keep serving the in-memory state.
	if v, ok := d.Lookup(997); !ok || v != 1 {
		t.Fatalf("read on poisoned facade: %v %v", v, ok)
	}
	if err := d.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close() = %v, want the poison", err)
	}
	mem.Crash()
	rec := openStore(t, mem, dev, shards)
	if got := dump(rec); !pairsEqual(got, m.pairs) {
		t.Fatalf("recovered %d elements, want exactly the %d acked", len(got), len(m.pairs))
	}
}

func TestDurableStickyError(t *testing.T)        { stickyError(t, 1) }
func TestDurableShardedStickyError(t *testing.T) { stickyError(t, 3) }

// TestDurableFaultInjectionReturnsErrors sanity-checks that injected
// faults surface as errors, not panics or silent loss.
func TestDurableFaultInjectionReturnsErrors(t *testing.T) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	d, err := OpenDurableSharded[int, int](faulty, pager.NewDisk(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	if err := d.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	faulty.SetTrip(0)
	if err := d.Insert(2, 2); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("tripped insert error = %v", err)
	}
}
