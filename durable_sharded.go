package fitingtree

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// IntentName is the rebalance intent record's file name inside a durable
// store's file system.
const IntentName = "rebalance.intent"

// legacyLogName is the log file of the retired single-tree store format,
// which also rooted its checkpoints in a gob manifest instead of the
// checksummed FSHM record.
const legacyLogName = "wal.log"

// errLegacyStore rejects a store in the retired format: its log would be
// ignored and its manifest cannot be decoded, so opening it could only
// lose data.
var errLegacyStore = errors.New("fitingtree: store is in the retired single-tree format " +
	"(gob checkpoint root, wal.log); it was left untouched and must be rebuilt")

// ShardWALName returns the log file name of shard i under fence
// generation gen. The generation is baked into the name so recovery can
// never replay one generation's records through another generation's
// fences: a migration switches every shard to fresh logs, and the old
// generation's logs are deleted only after — or discarded along with —
// the manifest flip that commits the move.
func ShardWALName(gen uint64, i int) string {
	return fmt.Sprintf("wal-%d-%d.log", gen, i)
}

// DurableSharded is the crash-safe facade: a range-sharded set of
// Optimistic trees (Sharded's partitioning and read protocol) whose writes
// are made durable by one write-ahead log per shard and whose base trees
// are persisted by incremental copy-on-write checkpoints committing one
// atomic cross-shard cut. A single-writer store is the same thing with
// one shard (OpenDurable, CreateDurable): one log, a fence-less manifest,
// never a migration.
//
// The protocol has four moving parts:
//
//   - Parallel group commit. Every Insert/Delete first appends one
//     checksummed record to the owning shard's WAL, then applies to that
//     shard's in-memory facade, both under that shard's mutex only — so
//     writers on different shards append and fsync concurrently.
//     SetSyncEvery batches the fsync barrier; a write is acknowledged —
//     promised to survive a crash — once its shard's Sync barrier covers
//     it.
//   - Incremental, atomic checkpoints. A checkpointer (background by
//     default, triggered by the flush pipeline's publications; or explicit
//     via Checkpoint) captures every shard's (state, WAL replay cursor)
//     under that shard's writer mutex, folds the states off-lock and
//     writes them to page storage incrementally: chunk identity is
//     preserved by the copy-on-write merges, so diffing the current chunk
//     ids against the previous cut's yields exactly the dirty chunks, and
//     only those are serialized — O(dirty), the on-disk mirror of
//     publication cost (chunk ids are process-unique, so one id→blob map
//     serves the whole facade). One top-level manifest blob names every
//     shard's chunk heads and cursor plus the fence keys, and commits
//     with the pager's dual-superblock epoch flip; each log is then
//     truncated up to its covered LSN.
//   - Recovery. Open loads the newest committed epoch — all shards from
//     cut N, never a mix (checksummed chunk blobs, O(segments) router
//     rebuild, no re-segmentation) — and replays each shard's WAL tail
//     past its cursor: O(checkpoint + tail), never a full bulk rebuild.
//   - Crash-consistent rebalance. Moving keys between shards is a
//     multi-shard mutation; it becomes atomic by writing a fence-change
//     intent record (old fences, new fences, source epoch) before any
//     migration work, building the new generation's shards and logs on
//     the side, and committing everything with the next manifest flip.
//     A crash at any point resolves wholesale at the next open: a
//     committed manifest still carrying a generation below the intent's
//     means the flip never landed — the migration is discarded and the
//     old generation recovered; at or past it means it committed — only
//     leftover files remain to sweep. See RebalanceIntent in
//     internal/core.
//
// Any WAL or device error on the write path poisons the facade: the
// failed log's tail state is unknown (a torn frame may sit where the next
// append would land, and anything written after it would be cut off by
// recovery), so Err turns sticky, every later write and Checkpoint fails
// fast (an acknowledged write that replay cannot see must never happen),
// and Close skips the final checkpoint — the last committed cut plus the
// synced log prefixes already hold everything acknowledged. Reads stay
// latch-free, snapshot-consistent and unaffected throughout.
type DurableSharded[K Key, V any] struct {
	codec opCodec[K, V]
	snap  core.SnapCodec[K, V]
	opts  Options
	fsys  wal.FS
	want  int // target shard count

	// reshape is held shared by writers and exclusively by rebalance (and
	// Close); readers never touch it. Same discipline as Sharded.
	reshape sync.RWMutex
	set     atomic.Pointer[dshardSet[K, V]]

	syncEvery    atomic.Int64  // group-commit batch, per shard
	flushAt      atomic.Int64  // forwarded to every shard, current and future
	maxFrozen    atomic.Int64  // forwarded to every shard, current and future
	asyncOff     atomic.Bool   // forwarded to every shard, current and future
	autoTuneOn   atomic.Bool   // forwarded to every shard, current and future
	factor       atomic.Uint64 // rebalance skew factor (math.Float64bits)
	writes       atomic.Uint64 // write counter gating the skew check
	rebalancedAt atomic.Int64  // total elements when fences were last computed

	// failed poisons the write path; failedMu guards it (writers on
	// different shards share no other mutex).
	failedMu sync.Mutex
	failed   error

	// ckptMu serializes checkpoints and rebalance commits and guards the
	// fields below. Rebalance acquires reshape before ckptMu; nothing
	// acquires them in the other order.
	ckptMu       sync.Mutex
	store        *pager.Store
	epoch        uint64
	generation   uint64
	heads        map[uint64]pager.PageID // chunk id -> blob head, last committed cut
	manifestHead pager.PageID
	haveCkpt     bool
	ckptErr      error

	// walStats describes what recovery found in each shard's log, in
	// shard order of the generation that was opened; nil when the facade
	// was created rather than opened.
	walStats []wal.OpenStats

	trigger  chan struct{}
	loopMu   sync.Mutex
	loopStop chan struct{}
	wg       sync.WaitGroup
}

// dshardSet is one immutable published partitioning of a DurableSharded
// facade: fence keys plus the durable shards they induce. opts mirrors
// shards' facades so the read paths shared with Sharded can borrow them
// without per-call allocation.
type dshardSet[K Key, V any] struct {
	bounds []K
	shards []*dshard[K, V]
	opts   []*Optimistic[K, V]
}

// dshard is one durable shard: an Optimistic tree plus its private WAL.
// mu serializes the shard's write path (append order is apply order);
// writers on other shards never take it.
type dshard[K Key, V any] struct {
	mu       sync.Mutex
	opt      *Optimistic[K, V]
	log      *wal.Log
	unsynced int
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
// fsys (per-shard WALs plus the rebalance intent) and dev (checkpoint
// pages). An existing store recovers from its newest committed epoch: an
// in-flight migration is resolved first (replayed wholesale if its
// manifest flip landed, discarded wholesale otherwise), then every
// shard's checkpoint chunks are loaded and its WAL tail replayed. The
// manifest's recorded options and fences override opts; a fresh store
// starts one empty shard with opts and grows toward the shards target as
// data arrives. A store in the retired single-tree format (gob checkpoint
// root and/or a wal.log) is rejected with an error naming it, untouched.
// Automatic checkpointing starts enabled.
func OpenDurableSharded[K Key, V any](fsys wal.FS, dev pager.Device, opts Options, shards int) (*DurableSharded[K, V], error) {
	if shards < 1 {
		return nil, fmt.Errorf("fitingtree: shard count %d, must be >= 1", shards)
	}
	// Checked before anything is touched, so a retired-format store stays
	// byte-identical (the gob root is caught by loadShardManifest below,
	// also ahead of every write).
	if r, err := fsys.Open(legacyLogName); err == nil {
		r.Close()
		return nil, fmt.Errorf("%w: found %s", errLegacyStore, legacyLogName)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	store := pager.NewStore(dev)
	super, haveCkpt, err := pager.ReadSuper(dev)
	if err != nil {
		return nil, fmt.Errorf("fitingtree: read superblock: %w", err)
	}
	var m core.ShardManifest
	var mchain []pager.PageID
	if haveCkpt {
		// The manifest is loaded before the intent is settled: its
		// generation — not the superblock's epoch — is what classifies an
		// in-flight migration (see resolveIntent).
		if m, mchain, err = loadShardManifest(store, super.Manifest); err != nil {
			return nil, err
		}
	}
	if err := resolveIntent(fsys, m.Generation, haveCkpt); err != nil {
		return nil, err
	}

	d := newDurableSharded[K, V](fsys, store, opts, shards)
	var trees []*Tree[K, V]
	var bounds []K
	var replayFroms []uint64
	var reachable []pager.PageID
	if haveCkpt {
		d.opts = m.Options
		if bounds, err = decodeFences(&d.codec, m.Fences); err != nil {
			return nil, err
		}
		trees = make([]*Tree[K, V], len(m.Shards))
		replayFroms = make([]uint64, len(m.Shards))
		for i, cut := range m.Shards {
			chunkHeads := make([]pager.PageID, len(cut.Chunks))
			for j, c := range cut.Chunks {
				chunkHeads[j] = pager.PageID(c)
			}
			trees[i], reachable, err = loadCheckpointChunks(store, d.snap, chunkHeads, d.opts, d.heads, reachable)
			if err != nil {
				return nil, fmt.Errorf("fitingtree: shard %d: %w", i, err)
			}
			replayFroms[i] = cut.ReplayFrom
		}
		reachable = append(reachable, mchain...)
		d.epoch = super.Epoch
		d.generation = m.Generation
		d.manifestHead = super.Manifest
		d.haveCkpt = true
	} else {
		tr, err := core.BulkLoad[K, V](nil, nil, opts)
		if err != nil {
			return nil, err
		}
		trees = []*Tree[K, V]{tr}
		replayFroms = []uint64{0}
	}
	store.RebuildFree(reachable)

	set := &dshardSet[K, V]{
		bounds: bounds,
		shards: make([]*dshard[K, V], len(trees)),
		opts:   make([]*Optimistic[K, V], len(trees)),
	}
	d.walStats = make([]wal.OpenStats, len(trees))
	total := 0
	for i, tree := range trees {
		log, records, st, err := wal.Open(fsys, ShardWALName(d.generation, i))
		if err != nil {
			closeShardLogs(set.shards[:i])
			return nil, fmt.Errorf("fitingtree: shard %d: %w", i, err)
		}
		d.walStats[i] = st
		log.SetNextLSN(replayFroms[i])
		if tree, err = replayTail(tree, d.codec, records, replayFroms[i]); err != nil {
			log.Close()
			closeShardLogs(set.shards[:i])
			return nil, fmt.Errorf("fitingtree: shard %d: %w", i, err)
		}
		set.shards[i] = d.newShard(tree, log)
		set.opts[i] = set.shards[i].opt
		total += tree.Len()
	}
	d.set.Store(set)
	d.rebalancedAt.Store(int64(total))
	d.SetAutoCheckpoint(true)
	return d, nil
}

// OpenDurable opens (or creates) a single-writer durable store: the
// one-shard case of OpenDurableSharded, which never migrates.
func OpenDurable[K Key, V any](fsys wal.FS, dev pager.Device, opts Options) (*DurableSharded[K, V], error) {
	return OpenDurableSharded[K, V](fsys, dev, opts, 1)
}

// CreateDurable initializes a single-writer durable store from an
// already-built tree: the one-shard case of CreateDurableSharded.
func CreateDurable[K Key, V any](fsys wal.FS, dev pager.Device, t *Tree[K, V]) (*DurableSharded[K, V], error) {
	return CreateDurableSharded(fsys, dev, t, 1)
}

// CreateDurableSharded initializes a sharded durable facade from an
// already-built tree: t is split into at most shards balanced range
// partitions (Sharded's fence policy) and a full cross-shard checkpoint
// is committed before returning, so the bulk-loaded data never passes
// through the logs. Any previous content of fsys and dev is superseded —
// atomically when it is a readable sharded store: the new store's first
// cut is built under the next generation (fresh log names, old pages
// shielded), so until that cut commits a crash still recovers the old
// store in full, and only afterwards are its files swept. The tree must
// not be used directly afterwards; the facade owns it.
func CreateDurableSharded[K Key, V any](fsys wal.FS, dev pager.Device, t *Tree[K, V], shards int) (*DurableSharded[K, V], error) {
	if shards < 1 {
		return nil, fmt.Errorf("fitingtree: shard count %d, must be >= 1", shards)
	}
	keys := make([]K, 0, t.Len())
	vals := make([]V, 0, t.Len())
	t.Ascend(func(k K, v V) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	starts, weights := t.PageBounds()
	store := pager.NewStore(dev)
	// Continue the epoch and generation sequences past any previous store
	// on the device: the epoch so the new superblock outranks the stale
	// one in the other slot, the generation so the fresh logs below never
	// truncate the previous store's. That store — superblock, pages, WAL
	// tails, intent — stays the untouched recovery target until the first
	// cut commits; destroying any of it earlier would lose its
	// acknowledged writes on a crash inside this function even though the
	// supersede never committed.
	super, haveCkpt, err := pager.ReadSuper(dev)
	if err != nil {
		return nil, err
	}
	gen := uint64(0)
	oldShards := 0
	var reachable []pager.PageID
	if haveCkpt {
		// A previous store whose manifest no longer decodes (corrupt, or
		// the retired single-tree format) was unrecoverable by this
		// facade anyway; it gets plain destructive supersede semantics.
		if m, mchain, merr := loadShardManifest(store, super.Manifest); merr == nil {
			gen = m.Generation + 1
			oldShards = len(m.Shards)
			reachable = mchain
		shield:
			for _, cut := range m.Shards {
				for _, c := range cut.Chunks {
					chain, cerr := store.Chain(pager.PageID(c))
					if cerr != nil {
						// A partially unreadable old store cannot be
						// recovered after a crash either way; stop
						// shielding its pages (the fresh generation's
						// log names still cost nothing).
						reachable = nil
						break shield
					}
					reachable = append(reachable, chain...)
				}
			}
		}
	}
	store.RebuildFree(reachable)

	d := newDurableSharded[K, V](fsys, store, t.Options(), shards)
	d.epoch = super.Epoch
	d.generation = gen
	bounds := balancedFences(keys, starts, weights, shards)
	logs, err := createShardLogs(fsys, gen, len(bounds)+1)
	if err != nil {
		return nil, err
	}
	set, err := d.newShardSet(keys, vals, bounds, logs)
	if err != nil {
		closeLogs(logs)
		return nil, err
	}
	d.set.Store(set)
	d.rebalancedAt.Store(int64(len(keys)))
	d.ckptMu.Lock()
	_, err = d.checkpointLocked(set, gen)
	d.ckptMu.Unlock()
	if err != nil {
		closeShardLogs(set.shards)
		return nil, err
	}
	// Committed: the previous store and any stale rebalance intent are
	// dead. The sweep is best-effort — a leftover intent resolves
	// harmlessly at the next open (its generation is at most gen, so it
	// can never condemn this store's logs), and old-generation log files
	// are never opened again (log names embed the generation). A retired-
	// format log goes too, or the next open would reject this store.
	for i := 0; i < oldShards; i++ {
		d.fsys.Remove(ShardWALName(gen-1, i))
	}
	d.fsys.Remove(legacyLogName)
	d.fsys.Remove(IntentName)
	d.fsys.Remove(IntentName + ".tmp")
	d.SetAutoCheckpoint(true)
	return d, nil
}

// newDurableSharded builds the facade shell with its tuning defaults.
func newDurableSharded[K Key, V any](fsys wal.FS, store *pager.Store, opts Options, want int) *DurableSharded[K, V] {
	d := &DurableSharded[K, V]{
		codec:   newOpCodec[K, V](),
		snap:    core.NewSnapCodec[K, V](),
		opts:    opts,
		fsys:    fsys,
		want:    want,
		store:   store,
		heads:   make(map[uint64]pager.PageID),
		trigger: make(chan struct{}, 1),
	}
	d.syncEvery.Store(1)
	d.flushAt.Store(DefaultFlushEvery)
	d.maxFrozen.Store(DefaultMaxFrozenLayers)
	d.asyncOff.Store(runtime.GOMAXPROCS(0) <= 1)
	d.factor.Store(math.Float64bits(DefaultRebalanceFactor))
	return d
}

// newShard wraps a tree and its log into a durable shard with the
// facade's current tuning and flush hook applied.
func (d *DurableSharded[K, V]) newShard(tree *Tree[K, V], log *wal.Log) *dshard[K, V] {
	o := NewOptimistic(tree)
	o.SetFlushEvery(int(d.flushAt.Load()))
	o.SetMaxFrozenLayers(int(d.maxFrozen.Load()))
	o.SetAsyncFlush(!d.asyncOff.Load())
	o.SetAutoTune(d.autoTuneOn.Load())
	o.SetFlushHook(func() {
		select {
		case d.trigger <- struct{}{}:
		default:
		}
	})
	return &dshard[K, V]{opt: o, log: log}
}

// newShardSet partitions the sorted (keys, vals) run along bounds and
// bulk-loads one durable shard per range over the given logs (one per
// range, in fence order).
func (d *DurableSharded[K, V]) newShardSet(keys []K, vals []V, bounds []K, logs []*wal.Log) (*dshardSet[K, V], error) {
	set := &dshardSet[K, V]{
		bounds: bounds,
		shards: make([]*dshard[K, V], len(bounds)+1),
		opts:   make([]*Optimistic[K, V], len(bounds)+1),
	}
	lo := 0
	for i := range set.shards {
		hi := len(keys)
		if i < len(bounds) {
			hi = lowerBound(keys, bounds[i]) // keys >= fence belong right of the cut
		}
		tr, err := BulkLoad(keys[lo:hi], vals[lo:hi], d.opts)
		if err != nil {
			return nil, fmt.Errorf("fitingtree: shard %d: %w", i, err)
		}
		set.shards[i] = d.newShard(tr, logs[i])
		set.opts[i] = set.shards[i].opt
		lo = hi
	}
	return set, nil
}

// createShardLogs creates count fresh, empty, synced logs for generation
// gen. Create truncates, so a stale leftover from an earlier discarded
// migration to the same generation cannot leak records into this one.
func createShardLogs(fsys wal.FS, gen uint64, count int) ([]*wal.Log, error) {
	logs := make([]*wal.Log, count)
	for i := range logs {
		name := ShardWALName(gen, i)
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

// closeShardLogs closes every built shard's log (error cleanup).
func closeShardLogs[K Key, V any](shards []*dshard[K, V]) {
	for _, sh := range shards {
		if sh != nil {
			sh.log.Close()
		}
	}
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
// form via the WAL key codec.
func encodeFences[K Key, V any](c *opCodec[K, V], bounds []K) [][]byte {
	fences := make([][]byte, len(bounds))
	for i, b := range bounds {
		fences[i] = c.appendKey(nil, b)
	}
	return fences
}

// decodeFences inverts encodeFences, validating that the fences are
// strictly increasing (the routing invariant every read and write relies
// on) so a corrupted manifest fails here instead of misrouting keys.
func decodeFences[K Key, V any](c *opCodec[K, V], fences [][]byte) ([]K, error) {
	bounds := make([]K, len(fences))
	for i, f := range fences {
		k, rest, err := c.decodeKey(f)
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

// readFSFile returns the full content of name inside fsys.
func readFSFile(fsys wal.FS, name string) ([]byte, error) {
	r, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// writeFileAtomic replaces name's content via the write-sibling, sync,
// rename protocol, so a crash leaves either the old or the new content.
func writeFileAtomic(fsys wal.FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, name)
}

// resolveIntent settles a rebalance intent left behind by a crash. The
// migration's commit point is the manifest flip carrying the intent's
// new Generation, so the committed manifest's generation decides
// wholesale: still below the intent's (or no checkpoint at all) means
// the flip never landed — the migration's logs are garbage and the old
// generation recovers; at or past it means it landed — only the source
// generation's logs remain to sweep. Epochs deliberately play no part
// in the comparison: they advance with every checkpoint, skip past
// failed superblock writes, and restart relative to a superseded store
// after CreateDurableSharded — any of which could make a stale intent
// look committed and condemn a live generation's logs, while the
// generation sequence moves only with committed migrations (and Create
// continues it). A torn or corrupt intent record is impossible for an
// in-flight migration (the record is written atomically and synced
// before any migration work), so it is discarded as a stale leftover.
// Always removed afterwards, along with the atomic-write sibling.
func resolveIntent(fsys wal.FS, gen uint64, haveCkpt bool) error {
	data, err := readFSFile(fsys, IntentName)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fsys.Remove(IntentName + ".tmp")
		}
		return err
	}
	if it, derr := core.DecodeRebalanceIntent(data); derr == nil {
		if !haveCkpt || gen < it.Generation {
			// Never committed: discard the migration's logs.
			for i := 0; i <= len(it.NewFences); i++ {
				if err := fsys.Remove(ShardWALName(it.Generation, i)); err != nil {
					return err
				}
			}
		} else {
			// Committed: sweep the source generation's logs (dead even
			// when later generations have committed since — log names
			// embed the generation, so the live one is never touched).
			for i := 0; i <= len(it.OldFences); i++ {
				if err := fsys.Remove(ShardWALName(it.Generation-1, i)); err != nil {
					return err
				}
			}
		}
	}
	if err := fsys.Remove(IntentName); err != nil {
		return err
	}
	return fsys.Remove(IntentName + ".tmp")
}

// poison makes err the facade's sticky write-path failure (first error
// wins).
func (d *DurableSharded[K, V]) poison(err error) {
	d.failedMu.Lock()
	if d.failed == nil {
		d.failed = err
	}
	d.failedMu.Unlock()
}

// failedErr returns the sticky write-path poison, nil when healthy.
func (d *DurableSharded[K, V]) failedErr() error {
	d.failedMu.Lock()
	defer d.failedMu.Unlock()
	return d.failed
}

// shardFor routes k to its owning shard.
func (ss *dshardSet[K, V]) shardFor(k K) *dshard[K, V] {
	return ss.shards[upperBoundKeys(ss.bounds, k)]
}

// Insert adds (k, v), durably once the owning shard's covering Sync
// barrier completes (immediately with the default SetSyncEvery(1)).
// Inserts to different shards append to — and fsync — different logs
// concurrently. Panics on a NaN key.
func (d *DurableSharded[K, V]) Insert(k K, v V) error {
	if k != k {
		panic("fitingtree: Insert with NaN key")
	}
	payload, err := d.codec.encodeOp(walOpInsert, k, v)
	if err != nil {
		return err
	}
	d.reshape.RLock()
	sh := d.set.Load().shardFor(k)
	sh.mu.Lock()
	err = d.failedErr()
	if err == nil {
		if _, err = sh.log.Append(payload); err != nil {
			d.poison(err)
		} else {
			// Appended: apply unconditionally so memory tracks the log
			// prefix even when the sync below fails.
			sh.opt.Insert(k, v)
			err = d.maybeSyncShard(sh)
		}
	}
	sh.mu.Unlock()
	d.reshape.RUnlock()
	if err == nil {
		d.maybeRebalance()
	}
	return err
}

// Delete removes one element with key k from the owning shard
// (Optimistic's duplicate semantics), reporting whether one was found.
// Durability matches Insert. Panics on a NaN key.
func (d *DurableSharded[K, V]) Delete(k K) (bool, error) {
	if k != k {
		panic("fitingtree: Delete with NaN key")
	}
	payload, err := d.codec.encodeOp(walOpDelete, k, *new(V))
	if err != nil {
		return false, err
	}
	d.reshape.RLock()
	sh := d.set.Load().shardFor(k)
	sh.mu.Lock()
	found := false
	err = d.failedErr()
	// Probe first so no-op deletes are not logged; sh.mu serializes the
	// shard's writers, so the answer cannot change before the apply.
	if err == nil && sh.opt.Contains(k) {
		if _, err = sh.log.Append(payload); err != nil {
			d.poison(err)
		} else {
			sh.opt.Delete(k)
			found = true
			err = d.maybeSyncShard(sh)
		}
	}
	sh.mu.Unlock()
	d.reshape.RUnlock()
	if found && err == nil {
		d.maybeRebalance()
	}
	return found, err
}

// DeleteValue removes one element with key k whose value equals v under
// Go equality (Optimistic.DeleteValue's flush-timing-independent victim
// semantics), reporting whether one was removed. Durability matches
// Insert. Panics on a NaN key and for non-comparable value types.
func (d *DurableSharded[K, V]) DeleteValue(k K, v V) (bool, error) {
	if k != k {
		panic("fitingtree: DeleteValue with NaN key")
	}
	payload, err := d.codec.encodeOp(walOpDeleteValue, k, v)
	if err != nil {
		return false, err
	}
	d.reshape.RLock()
	sh := d.set.Load().shardFor(k)
	sh.mu.Lock()
	found := false
	err = d.failedErr()
	if err == nil {
		present := false
		sh.opt.Each(k, func(w V) bool {
			if any(w) == any(v) {
				present = true
				return false
			}
			return true
		})
		if present {
			if _, err = sh.log.Append(payload); err != nil {
				d.poison(err)
			} else {
				sh.opt.DeleteValue(k, v)
				found = true
				err = d.maybeSyncShard(sh)
			}
		}
	}
	sh.mu.Unlock()
	d.reshape.RUnlock()
	if found && err == nil {
		d.maybeRebalance()
	}
	return found, err
}

// maybeSyncShard counts one write against the shard's group-commit
// batch. Callers hold sh.mu.
func (d *DurableSharded[K, V]) maybeSyncShard(sh *dshard[K, V]) error {
	sh.unsynced++
	if sh.unsynced < int(d.syncEvery.Load()) {
		return nil
	}
	return d.syncShardLocked(sh)
}

// syncShardLocked flushes one shard's WAL barrier, poisoning the whole
// facade on failure — a failed fsync leaves the durability of everything
// appended on this shard since the previous barrier unknown, and once
// one log is in that state no write anywhere can be honestly
// acknowledged. Callers hold sh.mu.
func (d *DurableSharded[K, V]) syncShardLocked(sh *dshard[K, V]) error {
	if sh.unsynced == 0 {
		return nil
	}
	if err := sh.log.Sync(); err != nil {
		d.poison(err)
		return err
	}
	sh.unsynced = 0
	return nil
}

// SetSyncEvery sets the per-shard group-commit batch: each shard's WAL is
// fsynced every n of that shard's writes instead of every write. Panics
// if n < 1.
func (d *DurableSharded[K, V]) SetSyncEvery(n int) {
	if n < 1 {
		panic("fitingtree: SetSyncEvery batch must be >= 1")
	}
	d.syncEvery.Store(int64(n))
}

// Sync is the explicit cross-shard group-commit barrier: after it
// returns nil, every write accepted so far — on every shard — survives a
// crash. Shards sync in parallel.
func (d *DurableSharded[K, V]) Sync() error {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	ss := d.set.Load()
	errs := make([]error, len(ss.shards))
	var wg sync.WaitGroup
	for i, sh := range ss.shards {
		wg.Add(1)
		go func(i int, sh *dshard[K, V]) {
			defer wg.Done()
			sh.mu.Lock()
			errs[i] = d.syncShardLocked(sh)
			sh.mu.Unlock()
		}(i, sh)
	}
	wg.Wait()
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
// after a failed rebalance in particular, committing a new epoch under
// the old generation would strand the durable state between the intent
// record and the migration it describes.
func (d *DurableSharded[K, V]) Checkpoint() (CheckpointStats, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if err := d.failedErr(); err != nil {
		return CheckpointStats{}, err
	}
	stats, err := d.checkpointLocked(d.set.Load(), d.generation)
	d.ckptErr = err
	return stats, err
}

// checkpointLocked commits one cut of set under generation. Callers hold
// d.ckptMu; set must be the published set (or, during a rebalance, the
// set about to be published while writers are excluded).
func (d *DurableSharded[K, V]) checkpointLocked(set *dshardSet[K, V], generation uint64) (CheckpointStats, error) {
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
		states[i] = sh.opt.state.Load()
		sh.mu.Unlock()
	}

	newHeads := make(map[uint64]pager.PageID, len(d.heads))
	mshards := make([]core.ShardCut, len(set.shards))
	for i, st := range states {
		tree := foldState(st)
		chunks, written, reused, err := writeDirtyChunks(d.store, d.snap, tree, d.heads, newHeads)
		if err != nil {
			d.store.Rollback()
			return stats, err
		}
		stats.ChunksWritten += written
		stats.ChunksReused += reused
		cs := make([]uint64, len(chunks))
		for j, id := range chunks {
			cs[j] = uint64(id)
		}
		mshards[i] = core.ShardCut{ReplayFrom: cuts[i], Chunks: cs}
	}
	if err := freeDeadHeads(d.store, d.heads, newHeads); err != nil {
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
	d.heads = newHeads
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
// migrates to a new shard generation: intent record first, then fresh
// logs and shards on the side, then one manifest flip that commits the
// move. Writers are excluded for the duration; readers keep the old set.
// An error leaves the old generation live in memory but poisons the
// facade (the migration's durable state is ambiguous until the next
// open, which discards it wholesale).
func (d *DurableSharded[K, V]) Rebalance() error {
	d.reshape.Lock()
	defer d.reshape.Unlock()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if err := d.failedErr(); err != nil {
		return err
	}
	err := d.rebalanceLocked()
	if err != nil {
		d.poison(err)
	}
	return err
}

// rebalanceLocked runs one migration. Callers hold reshape (exclusive)
// and ckptMu.
func (d *DurableSharded[K, V]) rebalanceLocked() error {
	ss := d.set.Load()
	// Quiesce the outgoing shards' flush pipelines, then collect their
	// merged content (same motion as Sharded.rebalance; shards drain in
	// parallel and retired sets stay clean for readers holding them).
	forEachShardParallel(ss.opts, func(sh *Optimistic[K, V]) { sh.Close() })
	states := make([]*ostate[K, V], len(ss.shards))
	for i, sh := range ss.shards {
		states[i] = sh.opt.state.Load()
	}
	keys, vals := collectStates(states)
	starts, weights, err := core.SegmentBoundsOf(keys, d.opts)
	if err != nil {
		// Unreachable: d.opts was normalized at construction.
		panic(fmt.Sprintf("fitingtree: rebalance segmentation: %v", err))
	}
	bounds := balancedFences(keys, starts, weights, d.want)
	newGen := d.generation + 1

	// 1. Intent first: once it is durable, a crash anywhere in the
	// migration resolves deterministically at the next open — discarded
	// while the committed manifest still carries the old generation,
	// replayed (and swept) once the flip below has landed.
	intent := core.EncodeRebalanceIntent(core.RebalanceIntent{
		SourceEpoch: d.epoch,
		Generation:  newGen,
		OldFences:   encodeFences(&d.codec, ss.bounds),
		NewFences:   encodeFences(&d.codec, bounds),
	})
	if err := writeFileAtomic(d.fsys, IntentName, intent); err != nil {
		return err
	}

	// 2. Build the new generation on the side: fresh empty logs (their
	// names carry newGen, so nothing can replay them through old fences)
	// and freshly bulk-loaded shards. The old generation's durable state
	// is untouched throughout.
	logs, err := createShardLogs(d.fsys, newGen, len(bounds)+1)
	if err != nil {
		return err
	}
	set, err := d.newShardSet(keys, vals, bounds, logs)
	if err != nil {
		closeLogs(logs)
		return err
	}

	// 3. The commit point: a full cut of the new shards (their trees are
	// freshly built, so every chunk is written; the collected content
	// already includes everything the old logs held) under the new
	// generation, flipped in with epoch+1. Crash before the flip:
	// recovery discards the migration; after: recovery loads it — either
	// way one coherent whole.
	if _, err := d.checkpointLocked(set, newGen); err != nil {
		closeShardLogs(set.shards)
		return err
	}
	d.set.Store(set)
	oldGen := d.generation
	d.generation = newGen
	d.rebalancedAt.Store(int64(len(keys)))

	// 4. Sweep: the old generation's logs and the intent are garbage.
	// Best effort — a failure here leaves files the next open removes
	// via the intent resolution (or ignores via generation-named opens).
	for i, sh := range ss.shards {
		sh.log.Close()
		d.fsys.Remove(ShardWALName(oldGen, i))
	}
	d.fsys.Remove(IntentName)
	return nil
}

// maybeRebalance runs the skew check on one write in shardSkewCheckEvery
// and triggers a migration when it reports drift. Unlike Sharded's, a
// durable rebalance writes a full checkpoint, so the check re-verifies
// under the exclusive lock before committing to the work.
func (d *DurableSharded[K, V]) maybeRebalance() {
	if d.writes.Add(1)%shardSkewCheckEvery != 0 {
		return
	}
	ss := d.set.Load()
	if !shardsNeedRebalance(ss.opts, nil, d.want, math.Float64frombits(d.factor.Load()),
		int(d.rebalancedAt.Load())) {
		return
	}
	d.reshape.Lock()
	defer d.reshape.Unlock()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.failedErr() != nil {
		return
	}
	ss = d.set.Load()
	if !shardsNeedRebalance(ss.opts, nil, d.want, math.Float64frombits(d.factor.Load()),
		int(d.rebalancedAt.Load())) {
		return // another writer migrated between the check and the lock
	}
	if err := d.rebalanceLocked(); err != nil {
		d.poison(err) // surfaced via Err and every later write
	}
}

// SetRebalanceFactor sets the skew threshold (see
// Sharded.SetRebalanceFactor); +Inf disables automatic migrations.
func (d *DurableSharded[K, V]) SetRebalanceFactor(factor float64) {
	if factor != factor || factor < minRebalanceFactor {
		factor = minRebalanceFactor
	}
	d.factor.Store(math.Float64bits(factor))
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
	if err := d.failedErr(); err != nil {
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
		sh.opt.SetFlushHook(nil)
	}
	forEachShardParallel(ss.opts, func(sh *Optimistic[K, V]) { sh.Close() })
	cerr := d.failedErr()
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

// WALRecords returns the total number of records across every shard's
// log — the replay tail the next recovery would process (plus any
// not-yet-truncated checkpointed prefix).
func (d *DurableSharded[K, V]) WALRecords() int {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	n := 0
	for _, sh := range d.set.Load().shards {
		sh.mu.Lock()
		n += sh.log.Len()
		sh.mu.Unlock()
	}
	return n
}

// WALOpenStats returns what recovery found when it opened each shard's
// log: replayed record counts and, for cut files, whether the discarded
// tail looked like a torn append (TornBytes without CorruptFrames) or like
// corruption (CorruptFrames > 0); zero values mean a clean shutdown. It
// describes the generation that was opened, in that generation's shard
// order — later rebalances do not change it — and is nil for a facade
// built by CreateDurableSharded, which opened nothing.
func (d *DurableSharded[K, V]) WALOpenStats() []wal.OpenStats {
	return append([]wal.OpenStats(nil), d.walStats...)
}

// Generation returns the current fence generation (increments with every
// committed rebalance).
func (d *DurableSharded[K, V]) Generation() uint64 {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.generation
}

// Epoch returns the checkpoint epoch sequence's current position (0
// before the first cut). It normally reads as the last committed cut's
// epoch, but failed commit attempts advance it too (see
// checkpointLocked), so the sequence may skip values.
func (d *DurableSharded[K, V]) Epoch() uint64 {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.epoch
}

// Shards returns the current number of shards.
func (d *DurableSharded[K, V]) Shards() int { return len(d.set.Load().shards) }

// Bounds returns a copy of the current fence keys (len Shards()-1,
// strictly increasing): shard i owns keys in [bounds[i-1], bounds[i]).
func (d *DurableSharded[K, V]) Bounds() []K {
	return append([]K(nil), d.set.Load().bounds...)
}

// ShardSizes returns the current per-shard element counts in fence
// order.
func (d *DurableSharded[K, V]) ShardSizes() []int {
	ss := d.set.Load()
	sizes := make([]int, len(ss.opts))
	for i, sh := range ss.opts {
		sizes[i] = sh.Len()
	}
	return sizes
}

// Lookup returns a value stored under k; latch-free (see
// Sharded.Lookup).
func (d *DurableSharded[K, V]) Lookup(k K) (V, bool) {
	ss := d.set.Load()
	return ss.shardFor(k).opt.Lookup(k)
}

// Contains reports whether k is present; latch-free.
func (d *DurableSharded[K, V]) Contains(k K) bool {
	_, ok := d.Lookup(k)
	return ok
}

// Each calls fn for every element with key exactly k against the owning
// shard's consistent snapshot; latch-free.
func (d *DurableSharded[K, V]) Each(k K, fn func(v V) bool) {
	ss := d.set.Load()
	ss.shardFor(k).opt.Each(k, fn)
}

// AscendRange scans lo <= key <= hi in ascending key order across
// shards; latch-free (see Sharded.AscendRange).
func (d *DurableSharded[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	ss := d.set.Load()
	ascendSharded(ss.bounds, ss.opts, lo, hi, fn)
}

// LookupBatch resolves keys by scatter-gather across shard snapshots;
// latch-free (see Sharded.LookupBatch).
func (d *DurableSharded[K, V]) LookupBatch(keys []K) ([]V, []bool) {
	ss := d.set.Load()
	return lookupBatchSharded(ss.bounds, ss.opts, keys)
}

// Len returns the total number of stored elements across all shards,
// including pending inserts.
func (d *DurableSharded[K, V]) Len() int {
	n := 0
	for _, sh := range d.set.Load().opts {
		n += sh.Len()
	}
	return n
}

// Stats aggregates the shards' statistics (see Sharded.Stats).
func (d *DurableSharded[K, V]) Stats() Stats {
	return aggregateShardStats(d.set.Load().opts)
}

// SetFlushEvery sets the per-shard delta flush threshold; shards created
// by later rebalances inherit the value. Panics if n < 1.
func (d *DurableSharded[K, V]) SetFlushEvery(n int) {
	if n < 1 {
		panic("fitingtree: SetFlushEvery threshold must be >= 1")
	}
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	d.flushAt.Store(int64(n))
	for _, sh := range d.set.Load().opts {
		sh.SetFlushEvery(n)
	}
}

// SetMaxFrozenLayers sets the per-shard frozen merge ladder depth;
// shards created by later rebalances inherit the value. Panics if n < 1.
func (d *DurableSharded[K, V]) SetMaxFrozenLayers(n int) {
	if n < 1 {
		panic("fitingtree: SetMaxFrozenLayers depth must be >= 1")
	}
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	d.maxFrozen.Store(int64(n))
	for _, sh := range d.set.Load().opts {
		sh.SetMaxFrozenLayers(n)
	}
}

// SetAsyncFlush enables or disables the asynchronous flush pipeline on
// every shard; shards created by later rebalances inherit the value.
func (d *DurableSharded[K, V]) SetAsyncFlush(enabled bool) {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	d.asyncOff.Store(!enabled)
	for _, sh := range d.set.Load().opts {
		sh.SetAsyncFlush(enabled)
	}
}

// SetAutoTune enables or disables cost-model-driven self-tuning on every
// shard (see Optimistic.SetAutoTune; disabled by default). Retuned
// layouts persist: checkpoints record each page's error bound, so
// recovery reassembles the tuned layout exactly. Shards created by later
// rebalances inherit the value.
func (d *DurableSharded[K, V]) SetAutoTune(enabled bool) {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	d.autoTuneOn.Store(enabled)
	for _, sh := range d.set.Load().opts {
		sh.SetAutoTune(enabled)
	}
}

// SyncFlush synchronously folds every shard's pending writes into its
// base tree; shards flush in parallel. Durability is unaffected (the
// logs already hold the deltas); it makes the next Checkpoint's
// dirty-chunk set exactly the folds' published one.
func (d *DurableSharded[K, V]) SyncFlush() {
	d.reshape.RLock()
	defer d.reshape.RUnlock()
	forEachShardParallel(d.set.Load().opts, func(sh *Optimistic[K, V]) { sh.SyncFlush() })
}
