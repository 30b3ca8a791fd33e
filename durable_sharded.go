package fitingtree

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// legacyLogName is the log file of the retired single-tree store format,
// which also rooted its checkpoints in a gob manifest instead of the
// checksummed FSHM record.
const legacyLogName = "wal.log"

// legacyIntentName is the rebalance intent record earlier builds wrote
// before every migration (and its atomic-write sibling, with ".tmp"). The
// manifest flip alone commits a migration, so open removes a leftover one
// unread.
const legacyIntentName = "rebalance.intent"

// errLegacyStore rejects a store in the retired format: its log would be
// ignored and its manifest cannot be decoded, so opening it could only
// lose data.
var errLegacyStore = errors.New("fitingtree: store is in the retired single-tree format " +
	"(gob checkpoint root, wal.log); it was left untouched and must be rebuilt")

// shardWALName returns the log file name of shard i under fence
// generation gen. The generation is baked into the name so recovery can
// never replay one generation's records through another generation's
// fences: a migration switches every shard to fresh logs, and the old
// generation's logs are deleted only after — or discarded along with —
// the manifest flip that commits the move.
func shardWALName(gen uint64, i int) string {
	return fmt.Sprintf("wal-%d-%d.log", gen, i)
}

// DurableSharded is the crash-safe store: the sharded engine (Sharded's
// partitioning, read protocol, routed write and rebalance — everything
// declared on shardEngine is promoted unchanged) with durability plugged
// in. Every shard carries a private write-ahead log its writer section
// appends to, and the base trees are persisted by incremental
// copy-on-write checkpoints committing one atomic cross-shard cut. A
// single-writer store is the same thing with one shard (shards = 1 to
// OpenDurableSharded or CreateDurableSharded): one log, a fence-less
// manifest, never a migration.
//
// The protocol has four moving parts:
//
//   - Parallel group commit. A write's record is appended to the owning
//     shard's WAL inside that shard's writer section — after the victim is
//     decided, before the state is published, under the shard's one writer
//     mutex (see Optimistic.apply) — so writers on different shards append
//     and fsync concurrently. SetSyncEvery batches the fsync barrier; a
//     write is acknowledged — promised to survive a crash — once its
//     shard's Sync barrier covers it. A batch above one fsyncs in the
//     background, so a Sync (or Close) returning nil acknowledges it.
//   - Incremental, atomic checkpoints. A checkpointer (background by
//     default, triggered by the flush pipeline's publications; or explicit
//     via Checkpoint) captures every shard's (state, WAL replay cursor)
//     under that shard's writer mutex, folds the states off-lock and
//     writes them to page storage incrementally: chunk identity is
//     preserved by the copy-on-write merges, so diffing the current chunk
//     ids against the previous cut's yields exactly the dirty chunks, and
//     only those are serialized — O(dirty), the on-disk mirror of
//     publication cost (chunk ids are process-unique, so one id→blob map
//     serves the whole store). One top-level manifest blob names every
//     shard's chunk heads and cursor plus the fence keys, and commits
//     with the pager's dual-superblock epoch flip; each log is then
//     truncated up to its covered LSN.
//   - Recovery. Open loads the newest committed epoch — all shards from
//     cut N, never a mix (checksummed chunk blobs, start and head arrays
//     derived per page, no re-segmentation, every shard's keys checked
//     inside its fences) — and replays each shard's WAL tail past its
//     cursor into one frozen layer that the shard's first flush folds:
//     O(checkpoint + tail), never a full bulk rebuild. Open, Create and
//     Scrub read the commit record through one reader (readCut); Open and
//     Scrub load it through one loader (loadCheckpoint).
//   - Crash-consistent rebalance. Moving keys between shards is a
//     multi-shard mutation; the engine's rebalance becomes atomic through
//     its commit step, the one generation switch a supersede makes too
//     (switchGeneration): the new generation's logs on the side, then
//     everything committed with the next manifest flip, which carries the
//     new generation. Log names embed their generation, so
//     the committed manifest alone decides a crash at any point, wholesale:
//     the next open recovers whichever generation it names and sweeps the
//     logs of the generations on either side (sweepGeneration).
//
// Any WAL or device error on the write path poisons the store (the logs'
// wal.Group records it): Err turns sticky, every later write and
// Checkpoint fails fast (an acknowledged write that replay cannot see must
// never happen), and Close skips the final checkpoint — the last committed
// cut plus the synced log prefixes already hold everything acknowledged.
// Reads stay latch-free, snapshot-consistent and unaffected throughout.
//
// Lock order: reshape (the engine's) → ckptMu → a shard's writer mutex.
type DurableSharded[K Key, V any] struct {
	shardEngine[K, V]

	codec opCodec[K, V]
	snap  core.SnapCodec[K, V]
	// group is what every shard's WAL shares: the group-commit batch, the
	// background barriers in flight and the write-path poison.
	group wal.Group
	fsys  wal.FS

	// ckptMu serializes checkpoints and rebalance commits and guards the
	// fields below.
	ckptMu       sync.Mutex
	store        *pager.Store
	epoch        uint64
	generation   uint64
	heads        map[uint64]pager.PageID // chunk id -> blob head, last committed cut
	order        []uint64                // heads' chunk ids in that cut's (shard, chain) order
	manifestHead pager.PageID
	haveCkpt     bool
	ckptErr      error

	// walStats describes what recovery found in each shard's log, in
	// shard order of the generation that was opened; nil when the store
	// was created rather than opened.
	walStats []wal.OpenStats

	trigger  chan struct{}
	loopMu   sync.Mutex
	loopStop chan struct{}
	wg       sync.WaitGroup
}

// CheckpointStats reports what one checkpoint did.
type CheckpointStats struct {
	// Epoch is the committed cut's epoch.
	Epoch uint64
	// Shards is the number of shards in the cut.
	Shards int
	// ChunksWritten sums the dirty chunks serialized across shards;
	// ChunksReused those carried over by reference.
	ChunksWritten int
	ChunksReused  int
}

// OpenDurableSharded opens (or creates) a sharded durable facade over
// fsys (per-shard WALs) and dev (checkpoint pages). An existing store
// recovers from its newest committed epoch: every shard's checkpoint
// chunks are loaded and checked against the shard's fences, an in-flight
// migration resolves wholesale (kept if its manifest flip landed, its logs
// swept otherwise), and every shard's WAL tail is composed into one frozen
// delta layer over its tree, which the shard's first flush folds (the open
// itself folds nothing). The manifest's recorded options and fences
// override opts; a fresh store starts one empty shard with opts and grows
// toward the shards target as data arrives. A store that fails to load —
// the retired single-tree format (gob checkpoint root and/or a wal.log)
// among them, rejected with an error naming it — is left untouched.
// Automatic checkpointing starts enabled.
func OpenDurableSharded[K Key, V any](fsys wal.FS, dev pager.Device, opts Options, shards int) (*DurableSharded[K, V], error) {
	// Checked before anything is touched, so a retired-format store stays
	// byte-identical (the gob root is caught by readCut below, also ahead
	// of every write).
	if r, err := fsys.Open(legacyLogName); err == nil {
		r.Close()
		return nil, fmt.Errorf("%w: found %s", errLegacyStore, legacyLogName)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	d, err := newDurableSharded[K, V](fsys, dev, opts, shards)
	if err != nil {
		return nil, err
	}
	c, haveCkpt, err := readCut(d.store, &d.codec)
	if err != nil {
		return nil, err
	}
	var trees []*Tree[K, V]
	var reachable []pager.PageID
	if haveCkpt {
		if trees, d.order, reachable, _, err = loadCheckpoint(d.store, d.snap, c, d.heads); err != nil {
			return nil, err
		}
		d.opts = c.m.Options
		d.epoch, d.generation = c.super.Epoch, c.m.Generation
		d.manifestHead, d.haveCkpt = c.super.Manifest, true
	} else {
		tr, err := core.BulkLoad[K, V](nil, nil, opts)
		if err != nil {
			return nil, err
		}
		trees, c.m.Shards = []*Tree[K, V]{tr}, make([]core.ShardCut, 1) // one empty shard, replayed from LSN 0
	}
	// The manifest's generation — not the superblock's epoch — is what
	// tells a committed migration from one whose flip never landed.
	if err := sweepGeneration(fsys, d.generation); err != nil {
		return nil, err
	}
	d.store.RebuildFree(reachable)

	// The logs are opened one after another on this goroutine (wal.FS
	// promises nothing about concurrent calls); the tails' replays — op
	// decode, the per-key sort and compose into one layer, no I/O — then
	// run side by side, and the lowest failing shard is the one reported.
	logs := make([]*wal.Log, len(trees))
	tails := make([][]wal.Record, len(trees))
	d.walStats = make([]wal.OpenStats, len(trees))
	errs := make([]error, len(trees))
	opened := 0
	for i := range trees {
		if logs[i], tails[i], d.walStats[i], errs[i] = wal.Open(fsys, shardWALName(d.generation, i)); errs[i] != nil {
			break
		}
		logs[i].SetNextLSN(c.m.Shards[i].ReplayFrom)
		opened++
	}
	layers := make([]*odelta[K, V], len(trees))
	fanOut(opened, func(i int) { layers[i], errs[i] = replayTail(d.codec, tails[i], c.m.Shards[i].ReplayFrom) })
	for i, err := range errs {
		if err != nil {
			closeLogs(logs)
			return nil, fmt.Errorf("fitingtree: shard %d: %w", i, err)
		}
	}
	// A shard with a tail opens with it as its one frozen layer, unfolded:
	// its first write's publication starts the flush worker that folds it,
	// and SyncFlush, a rebalance or Close fold it too. No worker starts
	// here, so the open publishes no fold and fires no flush hook.
	set := d.shardSetOf(c.bounds, trees)
	total := 0
	for i, sh := range set.shards {
		if l := layers[i]; l != nil {
			sh.state.Store(&ostate[K, V]{tree: trees[i], frozen: []*odelta[K, V]{l}, size: trees[i].Len() + l.addN - l.delN})
		}
		total += sh.state.Load().size
	}
	d.attach(set, logs)
	d.set.Store(set)
	d.rebalancedAt.Store(int64(total))
	d.SetAutoCheckpoint(true)
	return d, nil
}

// CreateDurableSharded initializes a sharded durable facade from an
// already-built tree: t is split into at most shards balanced range
// partitions (Sharded's fence policy) and switched in as the next
// generation with a full cross-shard checkpoint before returning, so the
// bulk-loaded data never passes through the logs. Any previous content of
// fsys and dev is superseded — atomically when it is a readable store: its
// pages are shielded and the switch is the one a migration makes
// (switchGeneration), so until the new cut commits a crash still recovers
// the old store in full. The tree's pages become the shards' pages — only
// a page a fence cuts through is rebuilt — so the tree must not be used
// directly afterwards: the facade owns its content, and an edit through
// the tree would corrupt a shard.
func CreateDurableSharded[K Key, V any](fsys wal.FS, dev pager.Device, t *Tree[K, V], shards int) (*DurableSharded[K, V], error) {
	d, err := newDurableSharded[K, V](fsys, dev, t.Options(), shards)
	if err != nil {
		return nil, err
	}
	// Continue the epoch and generation sequences past any previous store
	// on the device: the epoch so the new superblock outranks the stale
	// one in the other slot, the generation so the fresh logs never
	// truncate the previous store's. A previous store whose commit record
	// does not read (corrupt, or the retired single-tree format) was
	// unrecoverable by this facade anyway; it gets plain destructive
	// supersede semantics.
	c, found, err := readCut(d.store, &d.codec)
	if err != nil && !found {
		return nil, err
	}
	gen := uint64(0)
	var old []*wal.Log // the previous generation's logs, none of them opened
	var reachable []pager.PageID
	if found && err == nil {
		gen, old, reachable = c.m.Generation+1, make([]*wal.Log, len(c.m.Shards)), c.mchain
	shield:
		for _, cut := range c.m.Shards {
			for _, h := range cut.Chunks {
				chain, cerr := d.store.Chain(pager.PageID(h))
				if cerr != nil {
					// A partially unreadable old store cannot be recovered
					// after a crash either way; stop shielding its pages.
					reachable = nil
					break shield
				}
				reachable = append(reachable, chain...)
			}
		}
	}
	d.store.RebuildFree(reachable)
	d.epoch = c.super.Epoch
	set := d.load(t)
	d.ckptMu.Lock()
	err = d.switchGeneration(set, gen, old)
	d.ckptMu.Unlock()
	if err != nil {
		return nil, err
	}
	d.set.Store(set)
	// A retired-format log goes too, or the next open would reject this
	// store.
	d.fsys.Remove(legacyLogName)
	d.SetAutoCheckpoint(true)
	return d, nil
}

// newDurableSharded builds the store shell with its tuning defaults and
// plugs it into its own engine.
func newDurableSharded[K Key, V any](fsys wal.FS, dev pager.Device, opts Options, want int) (*DurableSharded[K, V], error) {
	d := &DurableSharded[K, V]{
		codec:   newOpCodec[K, V](),
		snap:    core.NewSnapCodec[K, V](),
		fsys:    fsys,
		store:   pager.NewStore(dev),
		heads:   make(map[uint64]pager.PageID),
		trigger: make(chan struct{}, 1),
	}
	if err := d.init(opts, want); err != nil {
		return nil, err
	}
	d.durable = d
	return d, nil
}

// attach plugs durability into a freshly built, not yet published shard
// set: every shard gets its commit log (one per shard, in fence order)
// and the flush hook that triggers the background checkpointer.
func (d *DurableSharded[K, V]) attach(set *shardSet[K, V], logs []*wal.Log) {
	kick := func() {
		select {
		case d.trigger <- struct{}{}:
		default:
		}
	}
	for i, sh := range set.shards {
		logs[i].Share(&d.group)
		sh.log = &shardLog[K, V]{Log: logs[i], codec: &d.codec}
		sh.SetFlushHook(kick)
	}
}

// createShardLogs creates count fresh, empty, synced logs for generation
// gen, in index order (sweepGeneration relies on it). Create truncates, so
// a stale leftover from an earlier discarded migration to the same
// generation cannot leak records into this one.
func createShardLogs(fsys wal.FS, gen uint64, count int) ([]*wal.Log, error) {
	logs := make([]*wal.Log, count)
	for i := range logs {
		name := shardWALName(gen, i)
		f, err := fsys.Create(name)
		if err != nil {
			closeLogs(logs[:i])
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			closeLogs(logs[:i])
			return nil, err
		}
		if err := f.Close(); err != nil {
			closeLogs(logs[:i])
			return nil, err
		}
		l, _, _, err := wal.Open(fsys, name)
		if err != nil {
			closeLogs(logs[:i])
			return nil, err
		}
		logs[i] = l
	}
	return logs, nil
}

// closeLogs closes every non-nil log (error cleanup).
func closeLogs(logs []*wal.Log) {
	for _, l := range logs {
		if l != nil {
			l.Close()
		}
	}
}

// storedCut is one commit record as readCut reads it: the superblock, the
// manifest it names with the manifest blob's own chain pages, and the
// manifest's fences decoded.
type storedCut[K Key] struct {
	super  pager.Super
	m      core.ShardManifest
	mchain []pager.PageID
	bounds []K
}

// readCut is the one reader of a store's commit record: the newest valid
// superblock, the manifest it names (checksummed, decoded) and the
// manifest's fences (decoded, strictly increasing). found is false when no
// slot holds a valid superblock — nothing was ever committed — and err then
// reports only a device failure; a superblock that is found is returned in
// c even when its manifest or fences fail.
func readCut[K Key, V any](store *pager.Store, codec *opCodec[K, V]) (c storedCut[K], found bool, err error) {
	if c.super, found, err = pager.ReadSuper(store.Device()); err != nil || !found {
		if err != nil {
			err = fmt.Errorf("fitingtree: read superblock: %w", err)
		}
		return c, found, err
	}
	if c.m, c.mchain, err = loadShardManifest(store, c.super.Manifest); err != nil {
		return c, true, err
	}
	c.bounds, err = decodeFences(codec, c.m.Fences)
	return c, true, err
}

// loadShardManifest reads, checksum-verifies, and decodes the top-level
// manifest blob, returning its chain pages for the reachability sweep. A
// blob whose pages pass their CRCs yet is no FSHM record is what the
// retired format's gob root looks like, and is reported as such.
func loadShardManifest(store *pager.Store, head pager.PageID) (core.ShardManifest, []pager.PageID, error) {
	blob, chain, err := store.GetChain(head, nil, nil)
	if err != nil {
		return core.ShardManifest{}, nil, fmt.Errorf("fitingtree: checkpoint manifest: %w", err)
	}
	m, err := core.DecodeShardManifest(blob)
	if err != nil {
		return core.ShardManifest{}, nil, fmt.Errorf("%w: checkpoint manifest: %v", errLegacyStore, err)
	}
	return m, chain, nil
}

// encodeFences encodes fence keys into the manifest's opaque byte-string
// form: one key's element form each.
func encodeFences[K Key, V any](c *opCodec[K, V], bounds []K) [][]byte {
	fences := make([][]byte, len(bounds))
	for i, b := range bounds {
		fences[i] = c.key.Append(nil, b)
	}
	return fences
}

// decodeFences inverts encodeFences, validating that the fences are
// strictly increasing (the routing invariant every read and write relies
// on) so a corrupted manifest fails here instead of misrouting keys.
func decodeFences[K Key, V any](c *opCodec[K, V], fences [][]byte) ([]K, error) {
	bounds := make([]K, len(fences))
	for i, f := range fences {
		k, rest, err := c.key.Decode(f)
		if err != nil {
			return nil, fmt.Errorf("fitingtree: manifest fence %d: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("fitingtree: manifest fence %d carries %d trailing bytes", i, len(rest))
		}
		if i > 0 && k <= bounds[i-1] {
			return nil, fmt.Errorf("fitingtree: manifest fences not strictly increasing at %d", i)
		}
		bounds[i] = k
	}
	return bounds, nil
}

// sweepGeneration removes the logs a crash can leave beside the committed
// generation gen: those of gen+1 (a migration or CreateDurableSharded
// whose manifest flip never landed) and those of gen-1 (a committed
// migration whose sweep did not finish). Neither can hold an acknowledged
// write the committed cut lacks. Logs are created in index order and
// swept in reverse, so a generation's leftovers are always an index
// prefix: the probe counts up from wal-<g>-0.log to the first missing
// name, and the removal runs backwards to keep that true if it is cut
// short. A rebalance intent record left by an earlier build goes too,
// unread.
func sweepGeneration(fsys wal.FS, gen uint64) error {
	stale := []uint64{gen + 1}
	if gen > 0 {
		stale = append(stale, gen-1)
	}
	for _, g := range stale {
		n := 0
		for ; ; n++ {
			r, err := fsys.Open(shardWALName(g, n))
			if errors.Is(err, fs.ErrNotExist) {
				break
			}
			if err != nil {
				return err
			}
			r.Close()
		}
		for i := n - 1; i >= 0; i-- {
			if err := fsys.Remove(shardWALName(g, i)); err != nil {
				return err
			}
		}
	}
	if err := fsys.Remove(legacyIntentName); err != nil {
		return err
	}
	return fsys.Remove(legacyIntentName + ".tmp")
}

// Insert adds (k, v), durably before it returns with the default
// SetSyncEvery(1), and with a larger batch once a later Sync (or Close)
// returns nil. Inserts to different shards append to — and fsync —
// different logs concurrently. Panics on a NaN key.
func (d *DurableSharded[K, V]) Insert(k K, v V) error {
	_, err := d.write(walOpInsert, k, v)
	return err
}

// Delete removes one element with key k from the owning shard
// (Optimistic's duplicate semantics), reporting whether one was found; a
// delete that finds nothing is not logged. Durability matches Insert.
// Panics on a NaN key.
func (d *DurableSharded[K, V]) Delete(k K) (bool, error) {
	return d.write(walOpDelete, k, *new(V))
}

// DeleteValue removes one element with key k whose value equals v under
// Go equality (Optimistic.DeleteValue's flush-timing-independent victim
// semantics), reporting whether one was removed. Durability matches
// Insert. Panics on a NaN key and for non-comparable value types.
func (d *DurableSharded[K, V]) DeleteValue(k K, v V) (bool, error) {
	return d.write(walOpDeleteValue, k, v)
}

// SetSyncEvery sets the per-shard group-commit batch: each shard's WAL is
// fsynced every n (or more) of that shard's writes instead of every write.
// With n > 1 the fsync runs in the background, appends coalesce meanwhile,
// and a later Sync (or Close) returning nil acknowledges. Panics if n < 1.
func (d *DurableSharded[K, V]) SetSyncEvery(n int) {
	if n < 1 {
		panic("fitingtree: SetSyncEvery batch must be >= 1")
	}
	d.group.SetBatch(n)
}

// Sync is the explicit cross-shard group-commit barrier: after it
// returns nil, every write accepted so far — on every shard — survives a
// crash (with SetSyncEvery(n > 1), the acknowledgment point). Shards sync
// in parallel. A poisoned store returns the poison and syncs nothing.
func (d *DurableSharded[K, V]) Sync() error {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	ss := d.set.Load()
	errs := make([]error, len(ss.shards))
	forEachShardParallel(ss.shards, func(i int, sh *Optimistic[K, V]) {
		sh.mu.Lock()
		errs[i] = sh.log.Barrier()
		sh.mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint persists one atomic cross-shard cut and truncates every
// shard's WAL up to its covered LSN. Per-shard chunk writes are
// incremental (only chunks dirtied since the previous cut are
// serialized); the whole cut commits with one superblock write. Safe to
// call concurrently with reads and writes; checkpoints and rebalances
// serialize. A poisoned facade fails fast without cutting, like Close:
// after a failed rebalance in particular, the failed flip's superblock
// may have landed, naming the new generation, so which generation is
// durable is for the next open to read, not for a new epoch under the
// old generation to overrule.
func (d *DurableSharded[K, V]) Checkpoint() (CheckpointStats, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if err := d.group.Err(); err != nil {
		return CheckpointStats{}, err
	}
	stats, err := d.checkpointLocked(d.set.Load(), d.generation)
	d.ckptErr = err
	return stats, err
}

// checkpointLocked commits one cut of set under generation. Callers hold
// d.ckptMu; set must be the published set (or, during a rebalance, the
// set about to be published while writers are excluded).
func (d *DurableSharded[K, V]) checkpointLocked(set *shardSet[K, V], generation uint64) (CheckpointStats, error) {
	stats := CheckpointStats{Shards: len(set.shards)}

	// Capture each shard's (LSN cursor, state) under its writer mutex:
	// the state then contains exactly the ops with LSN < cut. The cuts
	// need no cross-shard synchronization — each shard's WAL tail covers
	// everything past its own cut — only their commit must be atomic,
	// which the single manifest flip below provides.
	cuts := make([]uint64, len(set.shards))
	states := make([]*ostate[K, V], len(set.shards))
	for i, sh := range set.shards {
		sh.mu.Lock()
		cuts[i] = sh.log.NextLSN()
		states[i] = sh.state.Load()
		sh.mu.Unlock()
	}

	newHeads := make(map[uint64]pager.PageID, len(d.heads))
	newOrder := make([]uint64, 0, len(d.order))
	mshards := make([]core.ShardCut, len(set.shards))
	for i, st := range states {
		tree, _ := st.fold()
		ids, chunks, written, reused, err := writeDirtyChunks(d.store, d.snap, tree, d.heads, newHeads)
		if err != nil {
			d.store.Rollback()
			return stats, err
		}
		stats.ChunksWritten += written
		stats.ChunksReused += reused
		newOrder = append(newOrder, ids...)
		mshards[i] = core.ShardCut{ReplayFrom: cuts[i], Chunks: chunks}
	}
	if err := freeDeadHeads(d.store, d.order, d.heads, newHeads); err != nil {
		d.store.Rollback()
		return stats, err
	}
	blob := core.EncodeShardManifest(core.ShardManifest{
		Generation: generation,
		Options:    d.opts,
		Fences:     encodeFences(&d.codec, set.bounds),
		Shards:     mshards,
	})
	mHead, err := d.store.Put(blob)
	if err != nil {
		d.store.Rollback()
		return stats, err
	}
	if d.haveCkpt {
		if err := d.store.Free(d.manifestHead); err != nil {
			d.store.Rollback()
			return stats, err
		}
	}
	// The commit point: one checksummed superblock write + sync. Before
	// it, a crash recovers the previous cut (and previous generation);
	// after it, this one. Per-shard replay cursors live in the manifest,
	// so the superblock's own cursor is unused here.
	if err := pager.WriteSuper(d.store.Device(), pager.Super{
		Epoch:    d.epoch + 1,
		Manifest: mHead,
	}); err != nil {
		d.store.Rollback()
		// The write may have landed before the failure surfaced (a torn
		// sync), so epoch+1's parity slot may now hold a valid superblock
		// naming this rolled-back cut. Advance by two, not one: the
		// in-memory epoch then never lags anything on disk (the next
		// commit always outranks a landed epoch+1), and — same parity —
		// the next attempt rewrites the slot this failed write targeted,
		// never the slot holding the last COMMITTED epoch, which must
		// stay intact until a newer commit is durable (a torn retry over
		// it would leave no superblock covering the already-truncated WAL
		// prefixes). A landed epoch+1 stays a valid fallback meanwhile:
		// Rollback keeps this attempt's pages off the freelist, so
		// nothing rewrites them until a later recovery's RebuildFree.
		// Epochs may skip; every reader only ranks them.
		d.epoch += 2
		return stats, err
	}
	d.store.Commit()
	d.epoch++
	d.heads, d.order = newHeads, newOrder
	d.manifestHead = mHead
	d.haveCkpt = true
	stats.Epoch = d.epoch

	// Drop every shard's covered WAL prefix. Failure is benign: the
	// records stay until the next cut, and replay skips them via the
	// manifest's cursors.
	for i, sh := range set.shards {
		if cuts[i] == 0 {
			continue
		}
		sh.mu.Lock()
		err := sh.log.Truncate(cuts[i] - 1)
		sh.mu.Unlock()
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// Rebalance recomputes fences from the merged data and atomically
// migrates to a new shard generation (the engine's rebalance, forced, with
// this store's commit step). Writers are excluded for the duration;
// readers keep the old set. An error leaves the old generation live in
// memory but poisons the store (the migration's durable state is
// ambiguous until the next open, which resolves it wholesale).
func (d *DurableSharded[K, V]) Rebalance() error { return d.rebalance(true) }

// beginRebalance excludes cuts for the duration of a rebalance — it holds
// ckptMu until the returned func is called, so no checkpoint can
// interleave with the migration — and refuses, holding nothing, to start
// one on a poisoned store. Callers hold reshape exclusively.
func (d *DurableSharded[K, V]) beginRebalance() (func(), error) {
	d.ckptMu.Lock()
	if err := d.group.Err(); err != nil {
		d.ckptMu.Unlock()
		return nil, err
	}
	return d.ckptMu.Unlock, nil
}

// commitRebalance is the durable step of the engine's rebalance: it
// switches the store to next — built from old's collected content, writers
// excluded, not yet published — as the next generation. On error the
// store is poisoned and the engine keeps old published. Callers hold
// reshape (exclusive) and ckptMu.
func (d *DurableSharded[K, V]) commitRebalance(old, next *shardSet[K, V]) error {
	logs := make([]*wal.Log, len(old.shards))
	for i, sh := range old.shards {
		logs[i] = sh.log.Log
	}
	if err := d.switchGeneration(next, d.generation+1, logs); err != nil {
		d.group.Fail(err)
		return err
	}
	return nil
}

// switchGeneration is the one generation switch, a migration's
// (commitRebalance) and a supersede's (CreateDurableSharded): it makes
// next — built, not yet published — the store's generation gen, retiring
// generation gen-1, whose logs old lists in index order (nil for a log
// this process never opened).
//
//  1. Fresh empty logs for next's shards. Their names carry gen, so
//     nothing can replay them through another generation's fences; the
//     old generation's durable state is untouched throughout, and a crash
//     before step 2's flip leaves these logs to the next open's sweep.
//  2. The commit point: a full cut of next under gen (its chunks are
//     freshly cut, so every one is written; its content already includes
//     everything the old logs held), flipped in with the next epoch. A
//     crash before the flip recovers the old generation whole, after it
//     the new one.
//  3. The old generation's logs are garbage: closed and removed, best
//     effort, in reverse index order, so a failure leaves an index prefix
//     that the next open's sweep removes (and generation-named opens
//     ignore meanwhile).
//
// On error nothing was committed and gen's logs are closed. Callers hold
// ckptMu.
func (d *DurableSharded[K, V]) switchGeneration(next *shardSet[K, V], gen uint64, old []*wal.Log) error {
	logs, err := createShardLogs(d.fsys, gen, len(next.shards))
	if err != nil {
		return err
	}
	d.attach(next, logs)
	if _, err := d.checkpointLocked(next, gen); err != nil {
		closeLogs(logs)
		return err
	}
	d.generation = gen
	for i := len(old) - 1; i >= 0; i-- {
		if old[i] != nil {
			old[i].Close()
		}
		d.fsys.Remove(shardWALName(gen-1, i))
	}
	return nil
}

// SetAutoCheckpoint starts or stops the background checkpointer, which
// commits a cross-shard cut after any shard's flush publication.
// Disabling waits for an in-flight checkpoint, so afterwards cuts happen
// only via explicit Checkpoint calls — deterministic, which is what the
// crash-matrix tests need.
func (d *DurableSharded[K, V]) SetAutoCheckpoint(on bool) {
	d.loopMu.Lock()
	defer d.loopMu.Unlock()
	if on == (d.loopStop != nil) {
		return
	}
	if on {
		stop := make(chan struct{})
		d.loopStop = stop
		d.wg.Add(1)
		go d.checkpointLoop(stop)
		return
	}
	close(d.loopStop)
	d.loopStop = nil
	d.wg.Wait()
}

// checkpointLoop runs cuts on flush triggers until stopped. Errors are
// retained for Err; a storage fault must not take down the in-memory
// index.
func (d *DurableSharded[K, V]) checkpointLoop(stop chan struct{}) {
	defer d.wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-d.trigger:
			d.Checkpoint()
		}
	}
}

// Err returns the facade's sticky health: the write-path poison when any
// shard's WAL append or sync (or a rebalance) has failed — every write
// since has failed fast — else the most recent checkpoint error (nil
// after a successful cut).
func (d *DurableSharded[K, V]) Err() error {
	if err := d.group.Err(); err != nil {
		return err
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.ckptErr
}

// Close drains every shard's flush pipeline, commits a final cut, and
// releases the log handles. A poisoned facade skips the cut — its last
// committed epoch plus the synced log prefixes already hold everything
// acknowledged — and returns the poison error; Close itself never makes
// things worse. The facade must not be used afterwards.
func (d *DurableSharded[K, V]) Close() error {
	d.SetAutoCheckpoint(false)
	d.reshape.Lock()
	defer d.reshape.Unlock()
	ss := d.set.Load()
	for _, sh := range ss.shards {
		sh.SetFlushHook(nil)
	}
	ss.quiesce()
	cerr := d.group.Err()
	if cerr == nil {
		d.ckptMu.Lock()
		_, cerr = d.checkpointLocked(ss, d.generation)
		d.ckptErr = cerr
		d.ckptMu.Unlock()
	}
	for _, sh := range ss.shards {
		sh.mu.Lock()
		err := sh.log.Close()
		sh.mu.Unlock()
		if cerr == nil {
			cerr = err
		}
	}
	return cerr
}

// Stats is the engine's aggregate plus the logs: WALRecords counts every
// shard's log now (under the reshape read lock, then each shard's writer
// mutex in turn), and the WAL open fields sum what recovery found in the
// generation that was opened (later rebalances do not change them).
func (d *DurableSharded[K, V]) Stats() Stats {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	s := d.shardEngine.Stats()
	for _, sh := range d.set.Load().shards {
		sh.mu.Lock()
		s.WALRecords += sh.log.Len()
		sh.mu.Unlock()
	}
	for _, ws := range d.walStats {
		s.WALReplayed += ws.Records
		s.WALTornBytes += ws.TornBytes
		s.WALCorruptFrames += ws.CorruptFrames
	}
	return s
}

// Generation returns the current fence generation (increments with every
// committed rebalance).
func (d *DurableSharded[K, V]) Generation() uint64 {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.generation
}
