package fitingtree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// --- smoke ----------------------------------------------------------------

// TestDurableShardedBasic covers the healthy round trip: writes scattered
// over several shards, a checkpoint, more writes, recovery replaying the
// tails, and read-path parity with a model.
func TestDurableShardedBasic(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d := openStore(t, mem, dev, 4)
	for i := 0; i < 500; i++ {
		if err := d.Insert((i*997)%4096, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().WALRecords; n != 0 {
		t.Fatalf("WAL holds %d records after checkpoint", n)
	}
	for i := 500; i < 600; i++ {
		if err := d.Insert((i*997)%4096, i); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := d.Delete((3 * 997) % 4096); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	want := dump(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec := openStore(t, mem, dev, 4)
	if got := dump(rec); !pairsEqual(got, want) {
		t.Fatalf("recovered %d pairs, want %d", len(got), len(want))
	}
	// Close checkpointed, so the reopened logs were empty.
	for i, st := range rec.walStats {
		if st.Records != 0 {
			t.Fatalf("shard %d log held %d records after Close", i, st.Records)
		}
	}
	vals, oks := rec.LookupBatch([]int{997 % 4096, 4095, -7})
	if !oks[0] || oks[2] {
		t.Fatalf("batch lookup: %v %v", vals, oks)
	}
}

// TestCreateDurableSharded checks bulk import: the tree is split across
// shards, the initial cut commits without WAL traffic, and recovery gets
// everything back through the multi-shard manifest.
func TestCreateDurableSharded(t *testing.T) {
	keys := make([]int, 5000)
	vals := make([]int, len(keys))
	for i := range keys {
		keys[i], vals[i] = i*3, i
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Shards(); n != 4 {
		t.Fatalf("bulk import built %d shards, want 4", n)
	}
	if n := d.Stats().WALRecords; n != 0 {
		t.Fatalf("bulk import appended %d WAL records", n)
	}
	if ws := d.walStats; ws != nil {
		t.Fatalf("a created store opened no log, yet reports open stats %v", ws)
	}
	sizes := d.ShardSizes()
	for i, n := range sizes {
		if n < len(keys)/8 {
			t.Fatalf("shard %d holds only %d of %d elements: %v", i, n, len(keys), sizes)
		}
	}
	if err := d.Insert(1, -1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := openStore(t, mem, dev, 4)
	if ws := rec.walStats; len(ws) != 4 {
		t.Fatalf("reopened 4 shard logs, open stats cover %d", len(ws))
	}
	if rec.Len() != len(keys)+1 {
		t.Fatalf("recovered %d elements, want %d", rec.Len(), len(keys)+1)
	}
	if v, ok := rec.Lookup(1); !ok || v != -1 {
		t.Fatalf("post-import insert lost: %v %v", v, ok)
	}
	if v, ok := rec.Lookup(keys[4321]); !ok || v != 4321 {
		t.Fatalf("bulk key lost: %v %v", v, ok)
	}
}

// TestDurableShardedRebalance checks the happy-path migration: fences
// move, the generation advances, old logs disappear, no file but the logs
// and the device is written, and data survives a post-migration crash and
// recovery.
func TestDurableShardedRebalance(t *testing.T) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	dev := pager.NewDisk()
	d := openStore(t, faulty, dev, 3)
	// Heavily skewed load: everything lands in the last shard's range.
	for i := 0; i < 1000; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Generation(); g != 0 {
		t.Fatalf("generation %d before any rebalance", g)
	}
	// Count only what the migration does to names outside the logs.
	faulty.SetNameFilter(func(name string) bool { return !strings.HasPrefix(name, "wal-") })
	faulty.SetTrip(-1)
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if n := faulty.Ops(); n != 0 {
		t.Fatalf("the migration made %d operations on files other than the logs", n)
	}
	if g := d.Generation(); g != 1 {
		t.Fatalf("generation %d after rebalance, want 1", g)
	}
	if n := d.Shards(); n != 3 {
		t.Fatalf("%d shards after rebalance, want 3", n)
	}
	sizes := d.ShardSizes()
	for i, n := range sizes {
		if n < 1000/6 {
			t.Fatalf("shard %d still skewed after rebalance: %v", i, sizes)
		}
	}
	// The old generation's logs are gone.
	for _, name := range mem.Names() {
		if strings.HasPrefix(name, "wal-0-") {
			t.Fatalf("stale file %q survived the migration", name)
		}
	}
	// Post-migration writes land in generation-1 logs and survive a crash.
	for i := 1000; i < 1100; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	rec := openStore(t, mem, dev, 3)
	if rec.Len() != 1100 {
		t.Fatalf("recovered %d elements, want 1100", rec.Len())
	}
	if g := rec.Generation(); g != 1 {
		t.Fatalf("recovered generation %d, want 1", g)
	}
}

// TestDurableStatsUnderLoad polls Stats — which takes the reshape read
// lock and then each shard's writer mutex to count the logs — on a 3-shard
// store while writers run, a rebalance is forced and checkpoints commit.
// Once the writers stop, Elements must equal Len, and after the final
// checkpoint the logs must be empty.
func TestDurableStatsUnderLoad(t *testing.T) {
	const bulk, writers, perWriter = 30_000, 2, 3000
	d, err := CreateDurableSharded(wal.NewMemFS(), pager.NewDisk(), bumpyTree(t, bulk), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		defer func() { polled <- n }()
		for ; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			// Every writer deletes only keys it inserted, so no shard's
			// published size ever drops below its bulk share.
			if st := d.Stats(); st.Elements < bulk || st.Pages == 0 || st.WALRecords < 0 {
				t.Errorf("Stats mid-run: %+v", st)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := -(i*writers + w + 1) // below the bulk range: one shard takes them all
				if err := d.Insert(k, k); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 {
					if _, err := d.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	if err := d.Rebalance(); err != nil {
		t.Error(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	close(stop)
	if n := <-polled; n == 0 || d.Generation() == 0 {
		t.Errorf("Stats polled %d times, generation %d: the run raced nothing", n, d.Generation())
	}
	if st := d.Stats(); st.Elements != d.Len() || st.Elements != bulk+writers*perWriter*9/10 {
		t.Fatalf("Stats().Elements = %d once the writers stopped, Len() = %d, want %d",
			st.Elements, d.Len(), bulk+writers*perWriter*9/10)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().WALRecords; n != 0 {
		t.Fatalf("Stats().WALRecords = %d after the final checkpoint", n)
	}
}

// TestDurableShardedAutoRebalance checks that the skew trigger fires on
// the write path and commits a durable migration without any explicit
// call.
func TestDurableShardedAutoRebalance(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetSyncEvery(64)
	for i := 0; i < 3000; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Generation(); g == 0 {
		t.Fatal("skewed load never triggered a migration")
	}
	if n := d.Shards(); n != 3 {
		t.Fatalf("%d shards after auto rebalance, want 3", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := openStore(t, mem, dev, 3)
	if rec.Len() != 3000 {
		t.Fatalf("recovered %d elements, want 3000", rec.Len())
	}
}

// TestOneShardNeverMigrates pins the single-writer contract: under a
// skewed load that drives a multi-shard store through migrations, a
// one-shard store stays at one shard and generation 0 and never touches
// a generation-1 log.
func TestOneShardNeverMigrates(t *testing.T) {
	faulty := wal.NewFaultFS(wal.NewMemFS())
	d, err := OpenDurableSharded[int, int](faulty, pager.NewDisk(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetSyncEvery(256)
	// Count only generation-1 log traffic from here on.
	faulty.SetNameFilter(func(name string) bool { return strings.HasPrefix(name, "wal-1-") })
	faulty.SetTrip(-1)
	for i := 0; i < 20_000; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if ok, err := d.Delete(i - 2); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", i-2, ok, err)
			}
		}
	}
	if n, g := d.Shards(), d.Generation(); n != 1 || g != 0 {
		t.Fatalf("one-shard store reshaped: %d shards, generation %d", n, g)
	}
	if n := faulty.Ops(); n != 0 {
		t.Fatalf("one-shard store touched a generation-1 log %d times", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- crash matrices -------------------------------------------------------

// TestShardedCrashMatrixOneShard confines the fault to a single shard's
// log file (every other shard's storage stays healthy) and asserts the
// poison protocol: the first failed shard write fails, every later write
// anywhere fails fast with the same error, and recovery still sees a
// consistent prefix covering all acknowledged ops.
func TestShardedCrashMatrixOneShard(t *testing.T) {
	ops, ckptAt, _ := crashScript() // no rebalance: generation stays 0
	const shards = 3
	ms := matrixStore{shards: shards}

	for victim := 0; victim < shards; victim++ {
		victimName := shardWALName(0, victim)
		filter := func(name string) bool { return name == victimName }

		probeFS := wal.NewFaultFS(wal.NewMemFS())
		d, m := ms.open(t, probeFS, pager.NewDisk())
		probeFS.SetNameFilter(filter)
		probeFS.SetTrip(-1)
		if acked, _, _ := runScript(d, m, ops, ckptAt, nil); acked != len(ops) {
			t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
		}
		sites := probeFS.Ops()
		if sites == 0 {
			t.Fatalf("victim %d saw no traffic", victim)
		}

		for trip := 0; trip < sites; trip++ {
			victim, trip := victim, trip
			t.Run(fmt.Sprintf("victim=%d/trip=%d", victim, trip), func(t *testing.T) {
				t.Parallel()
				mem := wal.NewMemFS()
				faulty := wal.NewFaultFS(mem)
				dev := pager.NewDisk()
				d, m := ms.open(t, faulty, dev)
				faulty.SetNameFilter(filter)
				faulty.SetTrip(trip)
				acked, states, _ := runScript(d, m, ops, ckptAt, nil)

				// The op that hit the dead shard poisoned the facade:
				// every subsequent write — on ANY shard — fails fast with
				// the same sticky error.
				if acked < len(ops) {
					if err := d.Err(); !errors.Is(err, wal.ErrInjected) {
						t.Fatalf("poisoned facade Err() = %v", err)
					}
					if err := d.Insert(0, 0); !errors.Is(err, wal.ErrInjected) {
						t.Fatalf("write on healthy shard after poison = %v", err)
					}
					if _, err := d.Delete(4095); !errors.Is(err, wal.ErrInjected) {
						t.Fatalf("delete after poison = %v", err)
					}
				}
				if err := d.Close(); acked < len(ops) && !errors.Is(err, wal.ErrInjected) {
					t.Fatalf("poisoned Close() = %v", err)
				}
				mem.Crash()
				verifyRecovery(t, "one-shard crash", mem, dev, shards, acked, states)
			})
		}
	}
}

// TestShardedCrashMatrixRebalance kills storage at every fault point of a
// migration — new-generation log creation, the committing cut's every
// page, the sweep — crashes, and asserts recovery resolves the migration
// wholesale: the data always equals the full pre-migration model (a fence
// move changes layout, never content), only the recovered generation's
// logs remain, and the store keeps working.
func TestShardedCrashMatrixRebalance(t *testing.T) {
	const shards = 3
	const n = 600
	load := func(t *testing.T, fsys wal.FS, dev pager.Device) *DurableSharded[int, int] {
		d := openStore(t, fsys, dev, shards)
		for i := 0; i < n; i++ {
			if err := d.Insert(i, i); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	wantPairs := make([][2]int, n)
	for i := range wantPairs {
		wantPairs[i] = [2]int{i, i}
	}

	// Probe on both axes: how many FS ops and device ops one migration
	// costs after an identical load.
	probeFS := wal.NewFaultFS(wal.NewMemFS())
	probeDev := pager.NewFaultDevice(pager.NewDisk())
	d := load(t, probeFS, probeDev)
	probeFS.SetTrip(-1) // reset counters to isolate the migration's sites
	probeDev.SetTrip(-1)
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	fsSites, devSites := probeFS.Ops(), probeDev.Ops()
	if fsSites == 0 || devSites == 0 {
		t.Fatalf("probe migration counted %d FS / %d device sites", fsSites, devSites)
	}

	check := func(t *testing.T, label string, mem *wal.MemFS, dev pager.Device) {
		t.Helper()
		mem.Crash()
		rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		rec.SetAutoCheckpoint(false)
		if got := dump(rec); !pairsEqual(got, wantPairs) {
			t.Fatalf("%s: recovered %d pairs, want %d — a migration fault changed the data", label, len(got), n)
		}
		// Recovery swept the other generation, whichever way it resolved.
		live := fmt.Sprintf("wal-%d-", rec.Generation())
		for _, name := range mem.Names() {
			if !strings.HasPrefix(name, live) {
				t.Fatalf("%s: %q survived a recovery at generation %d", label, name, rec.Generation())
			}
		}
		// The recovered store accepts writes and a checkpoint: no
		// generation/name collision with migration leftovers.
		if err := rec.Insert(n+1, -1); err != nil {
			t.Fatalf("%s: post-recovery insert: %v", label, err)
		}
		if _, err := rec.Checkpoint(); err != nil {
			t.Fatalf("%s: post-recovery checkpoint: %v", label, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for trip := 0; trip < fsSites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("fs/trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			faulty := wal.NewFaultFS(mem)
			dev := pager.NewDisk()
			d := load(t, faulty, dev)
			faulty.SetTrip(trip)
			// Trips in the post-commit sweep are absorbed (the sweep is
			// best-effort; recovery re-cleans), so rerr may be nil for
			// the last few sites. A failed migration must poison.
			rerr := d.Rebalance()
			if rerr != nil {
				if err := d.Insert(0, 0); err == nil {
					t.Fatal("write accepted on a facade with an ambiguous migration")
				}
			}
			check(t, "fs", mem, dev)
		})
	}
	for trip := 0; trip < devSites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("dev/trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			inner := pager.NewDisk()
			faulty := pager.NewFaultDevice(inner)
			d := load(t, mem, faulty)
			faulty.SetTrip(trip)
			d.Rebalance() // may fail; recovery must resolve either way
			check(t, "dev", mem, inner)
		})
	}
}

// --- randomized model check ----------------------------------------------

// TestDurableShardedRandomizedModel drives a seeded random op mix —
// inserts, deletes, checkpoints, migrations, crash-and-recover cycles —
// against the in-memory model and asserts full-state equality after
// every recovery.
func TestDurableShardedRandomizedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			mem := wal.NewMemFS()
			dev := pager.NewDisk()
			d := openStore(t, mem, dev, 3)
			model := map[int]int{}
			steps := 1500
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(100); {
				case r < 70:
					k, v := rng.Intn(8192), rng.Int()
					// The model is a map, so avoid duplicate keys in the
					// store: overwrite = delete + insert.
					if _, ok := model[k]; ok {
						if _, err := d.Delete(k); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.Insert(k, v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case r < 85:
					k := rng.Intn(8192)
					_, want := model[k]
					ok, err := d.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					if ok != want {
						t.Fatalf("step %d: Delete(%d) = %v, model says %v", i, k, ok, want)
					}
					delete(model, k)
				case r < 92:
					if _, err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case r < 96:
					if err := d.Rebalance(); err != nil {
						t.Fatal(err)
					}
				default:
					// Crash and recover mid-run.
					mem.Crash()
					d = openStore(t, mem, dev, 3)
				}
			}
			mem.Crash()
			rec := openStore(t, mem, dev, 3)
			if rec.Len() != len(model) {
				t.Fatalf("recovered %d elements, model has %d", rec.Len(), len(model))
			}
			rec.AscendRange(-1, 8192, func(k, v int) bool {
				if model[k] != v {
					t.Fatalf("key %d: recovered %d, model %d", k, v, model[k])
				}
				return true
			})
		})
	}
}

// --- commit-protocol regressions ------------------------------------------

// errSuperFault marks a superFaultDev injection.
var errSuperFault = errors.New("injected superblock fault")

// superFaultMode selects what a superFaultDev does to the next superblock
// write: nothing, or one of the three outcomes of a write whose
// acknowledgment never arrives — it landed anyway, it was lost entirely,
// or the crash mid-write left garbage in the slot.
type superFaultMode int

const (
	superPass superFaultMode = iota
	superFailLanded
	superFailLost
	superTear
)

// superFaultDev fails exactly one superblock write (pages 0 and 1) per
// arming, passing every blob-page write through untouched.
type superFaultDev struct {
	pager.Device
	mode superFaultMode
}

func (f *superFaultDev) Write(id pager.PageID, p []byte) error {
	if id >= 2 || f.mode == superPass {
		return f.Device.Write(id, p)
	}
	mode := f.mode
	f.mode = superPass
	switch mode {
	case superFailLanded:
		f.Device.Write(id, p)
	case superTear:
		f.Device.Write(id, make([]byte, len(p)))
	}
	return errSuperFault
}

// TestShardedCheckpointRetryParity pins the dual-superblock discipline
// around a failed commit: a checkpoint retried after a failed superblock
// write must target the slot the failure targeted, never the slot holding
// the last committed cut — that cut's WAL prefixes are already truncated,
// so a crash tearing a retry aimed at its slot would lose acknowledged
// data with no fallback.
func TestShardedCheckpointRetryParity(t *testing.T) {
	run := func(t *testing.T, shards int, firstFail superFaultMode, tearRetry bool) {
		mem := wal.NewMemFS()
		disk := pager.NewDisk()
		fdev := &superFaultDev{Device: disk}
		d := openStore(t, mem, fdev, shards)
		for i := 0; i < 200; i++ {
			if err := d.Insert(i*31, i); err != nil {
				t.Fatal(err)
			}
		}
		// Epoch 1 commits and truncates the covered WAL prefixes: from
		// here on, losing the superblock loses the first 200 pairs.
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 200; i < 300; i++ {
			if err := d.Insert(i*31, i); err != nil {
				t.Fatal(err)
			}
		}
		fdev.mode = firstFail
		if _, err := d.Checkpoint(); !errors.Is(err, errSuperFault) {
			t.Fatalf("checkpoint with failing superblock write = %v, want injected fault", err)
		}
		for i := 300; i < 350; i++ {
			if err := d.Insert(i*31, i); err != nil {
				t.Fatal(err)
			}
		}
		if tearRetry {
			fdev.mode = superTear
			if _, err := d.Checkpoint(); !errors.Is(err, errSuperFault) {
				t.Fatalf("torn retry checkpoint = %v, want injected fault", err)
			}
		} else {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("retry checkpoint: %v", err)
			}
			super, ok, err := pager.ReadSuper(disk)
			if err != nil || !ok {
				t.Fatalf("ReadSuper after retry = (%v, %v)", ok, err)
			}
			if super.Epoch != 4 {
				t.Fatalf("retry committed epoch %d, want 4 (the failed attempt claims two)", super.Epoch)
			}
		}
		mem.Crash()
		rec := openStore(t, mem, disk, shards)
		defer rec.Close()
		if got := rec.Len(); got != 350 {
			t.Fatalf("recovered %d pairs, want 350", got)
		}
		for i := 0; i < 350; i++ {
			if v, ok := rec.Lookup(i * 31); !ok || v != i {
				t.Fatalf("key %d: got (%d, %v), want (%d, true)", i*31, v, ok, i)
			}
		}
	}
	for _, c := range []struct {
		name      string
		firstFail superFaultMode
		tearRetry bool
	}{
		{"lost-then-torn-retry", superFailLost, true},
		{"landed-then-torn-retry", superFailLanded, true},
		{"lost-then-retry-commits", superFailLost, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					run(t, shards, c.firstFail, c.tearRetry)
				})
			}
		})
	}
}

// TestShardedPoisonedCheckpointFailsFast pins the poison contract for
// checkpoints: after a rebalance fails with a new-generation log already
// on disk, Checkpoint must refuse to commit — which generation is durable
// is the next open's to decide — and recovery must still see every
// acknowledged write under the old generation and sweep the failed
// migration's log.
func TestShardedPoisonedCheckpointFailsFast(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { poisonedCheckpointFailsFast(t, shards) })
	}
}

func poisonedCheckpointFailsFast(t *testing.T, shards int) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	disk := pager.NewDisk()
	d := openStore(t, faulty, disk, shards)
	for i := 0; i < 400; i++ {
		if err := d.Insert(i*17, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 500; i++ {
		if err := d.Insert(i*17, i); err != nil {
			t.Fatal(err)
		}
	}
	committed, ok, err := pager.ReadSuper(disk)
	if err != nil || !ok {
		t.Fatalf("ReadSuper = (%v, %v)", ok, err)
	}
	// Fail the migration once its first new-generation log exists: the
	// sync after the create trips.
	faulty.SetNameFilter(func(name string) bool { return strings.HasPrefix(name, "wal-1-") })
	faulty.SetTrip(1)
	if err := d.Rebalance(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("rebalance = %v, want injected fault", err)
	}
	if _, err := mem.Open(shardWALName(1, 0)); err != nil {
		t.Fatalf("rebalance died after its first log create but left no log: %v", err)
	}
	if _, err := d.Checkpoint(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("checkpoint on a poisoned facade = %v, want the sticky fault", err)
	}
	if after, ok, err := pager.ReadSuper(disk); err != nil || !ok || after.Epoch != committed.Epoch {
		t.Fatalf("poisoned checkpoint moved the committed epoch %d -> %d (ok=%v, err=%v)",
			committed.Epoch, after.Epoch, ok, err)
	}
	mem.Crash()
	rec := openStore(t, mem, disk, shards)
	defer rec.Close()
	if got := rec.Len(); got != 500 {
		t.Fatalf("recovered %d pairs, want 500", got)
	}
	if g := rec.Generation(); g != 0 {
		t.Fatalf("recovered generation %d, want 0 (the migration never committed)", g)
	}
	for _, name := range mem.Names() {
		if strings.HasPrefix(name, "wal-1-") {
			t.Fatalf("recovery left the failed migration's %q behind", name)
		}
	}
}

// TestCreateDurableShardedSupersedeCrash pins CreateDurableSharded's
// supersede discipline: until the new store's first cut commits, a crash
// must still recover the previous store in full — checkpointed base and
// acknowledged WAL tail alike — and a committed supersede continues the
// old store's generation sequence, sweeping its log files only after the
// commit. The logs of a supersede that never committed are swept by the
// next open.
func TestCreateDurableShardedSupersedeCrash(t *testing.T) {
	mem := wal.NewMemFS()
	disk := pager.NewDisk()

	// Store A: a checkpointed base plus an acknowledged, never-checkpointed
	// WAL tail. No Close — the process is about to "crash".
	a := openStore(t, mem, disk, 3)
	for i := 0; i < 300; i++ {
		if err := a.Insert(i*13, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 360; i++ {
		if err := a.Insert(i*13, i); err != nil {
			t.Fatal(err)
		}
	}

	// A supersede attempt that dies before its first cut commits: the
	// device rejects (tears) the very first page write.
	tree, err := BulkLoad([]int{1, 2, 3}, []int{10, 20, 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fdev := pager.NewFaultDevice(disk)
	fdev.SetTrip(0)
	if _, err := CreateDurableSharded(mem, fdev, tree, 2); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("create on a dead device = %v, want injected fault", err)
	}
	mem.Crash()

	rec := openStore(t, mem, disk, 3)
	if got := rec.Len(); got != 360 {
		t.Fatalf("recovered %d pairs after a failed supersede, want 360", got)
	}
	for i := 0; i < 360; i++ {
		if v, ok := rec.Lookup(i * 13); !ok || v != i {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", i*13, v, ok, i)
		}
	}
	if g := rec.Generation(); g != 0 {
		t.Fatalf("recovered generation %d, want 0", g)
	}
	// The failed supersede's logs never committed: the open swept them.
	for _, name := range mem.Names() {
		if strings.HasPrefix(name, "wal-1-") {
			t.Fatalf("the failed supersede's log %s survived the reopen", name)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// A successful supersede continues the generation sequence and sweeps
	// the old store's log files only after committing.
	tree2, err := BulkLoad([]int{1, 2, 3}, []int{10, 20, 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(mem, disk, tree2, 2)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(d)
	if g := d.Generation(); g != 1 {
		t.Fatalf("superseding store at generation %d, want 1", g)
	}
	for _, name := range mem.Names() {
		if strings.HasPrefix(name, "wal-0-") {
			t.Fatalf("old generation's log %s survived a committed supersede", name)
		}
	}
	if err := d.Insert(4, 40); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	rec2 := openStore(t, mem, disk, 2)
	defer rec2.Close()
	want := map[int]int{1: 10, 2: 20, 3: 30, 4: 40}
	if got := rec2.Len(); got != len(want) {
		t.Fatalf("recovered %d pairs after a committed supersede, want %d", got, len(want))
	}
	for k, v := range want {
		if got, ok := rec2.Lookup(k); !ok || got != v {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
	if g := rec2.Generation(); g != 1 {
		t.Fatalf("recovered generation %d, want 1", g)
	}
}

// liveCut returns dev's committed superblock and manifest and every page
// the committed cut reaches: the manifest's chain and every chunk's.
func liveCut(t testing.TB, dev pager.Device) (pager.Super, core.ShardManifest, []pager.PageID) {
	t.Helper()
	sup, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no committed superblock: %v", err)
	}
	store := pager.NewStore(dev)
	m, live, err := loadShardManifest(store, sup.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range m.Shards {
		for _, h := range cut.Chunks {
			chain, err := store.Chain(pager.PageID(h))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, chain...)
		}
	}
	return sup, m, live
}

// recommit commits blob as dev's manifest at the epoch after sup's, placed
// on pages outside live, so the cut it supersedes stays intact.
func recommit(t testing.TB, dev pager.Device, sup pager.Super, live []pager.PageID, blob []byte) {
	t.Helper()
	store := pager.NewStore(dev)
	store.RebuildFree(live)
	head, err := store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	store.Commit()
	if err := pager.WriteSuper(dev, pager.Super{Epoch: sup.Epoch + 1, Manifest: head}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRejectsMisroutedShards: a manifest whose checksums are all
// valid but whose two shards' chunk lists are swapped puts every key in a
// shard its fences do not route it to, where no lookup would find it.
// Recovery and Scrub must both reject it, naming the first misrouted
// shard, and the rejected open must leave the directory as it found it.
func TestRecoveryRejectsMisroutedShards(t *testing.T) {
	const n = 4000
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i * 3
	}
	tree, err := BulkLoad(keys, keys, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	mem, dev := wal.NewMemFS(), pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	sup, m, live := liveCut(t, dev)
	if len(m.Shards) != 2 {
		t.Fatalf("the fixture has %d shards, want 2", len(m.Shards))
	}
	m.Shards[0].Chunks, m.Shards[1].Chunks = m.Shards[1].Chunks, m.Shards[0].Chunks
	recommit(t, dev, sup, live, core.EncodeShardManifest(m))
	// An uncommitted migration's leftover log, which an open that loaded
	// the cut would sweep.
	mem.SetBytes(shardWALName(m.Generation+1, 0), nil)

	names := mem.Names()
	rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, 2)
	if err == nil {
		missed := 0
		for _, k := range keys {
			if _, ok := rec.Lookup(k); !ok {
				missed++
			}
		}
		rec.Close()
		t.Fatalf("a store with swapped shard contents opened; %d of %d lookups missed", missed, n)
	}
	if !strings.Contains(err.Error(), "shard 0 ") {
		t.Fatalf("open of a misrouted store = %v, want an error naming shard 0", err)
	}
	if got := mem.Names(); !slices.Equal(got, names) {
		t.Fatalf("a rejected open changed the directory: %v -> %v", names, got)
	}
	if _, err := Scrub[int, int](dev); err == nil || !strings.Contains(err.Error(), "shard 0 ") {
		t.Fatalf("scrub of a misrouted store = %v, want an error naming shard 0", err)
	}
}
