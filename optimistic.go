package fitingtree

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fitingtree/internal/core"
	"fitingtree/internal/delta"
)

// flushFloor is the floor of the flush threshold: the number of pending
// writes that triggers an Optimistic facade's delta flush (a copy-on-write
// fold into the base tree) while the base tree is small. Past it the
// threshold follows the tree — half its page count — because a fold
// rebuilds every page a pending write falls into: B writes over P pages
// rebuild P·(1−e^(−B/P)) of them, so a batch that does not grow with the
// tree pays nearly one whole page per write.
const flushFloor = 1024

// maxFrozenLayers is the depth of the frozen merge ladder: how many
// tripped deltas may queue for background merging before writers feel
// backpressure. A burst pushes up to this many deltas in O(1) each and
// leaves the merging to the background compactor; a ladder one deep costs
// the canonical write median about 17 %.
const maxFrozenLayers = 4

// backpressureFactor bounds the asynchronous flush pipeline's lag.
// While the frozen ladder is full, writers keep absorbing new writes into
// the active delta; once the active delta reaches backpressureFactor times
// the flush threshold, the next writer waits for the background round in
// flight to publish — which frees a ladder slot — and only if the ladder is
// still full then (no round was open) falls back to a synchronous inline
// fold of the whole ladder. The same factor bounds the compaction
// scheduler's layer growth: adjacent frozen layers are merged into each
// other only while the combined layer stays within backpressureFactor ×
// the flush threshold, so a fold into the base tree batches about that
// many deltas. With the tree-derived threshold (see flushFloor) both bounds
// come to about two pending writes per page of the base tree.
const backpressureFactor = 4

// compactTierFactor is the ladder scheduler's size-tiering ratio: the
// bottom-most adjacent pair of frozen layers is compacted when the lower
// layer holds at most compactTierFactor times the upper one's pending
// ops. A lower layer that has outgrown the ratio (or the combined-size
// bound) is folded into the base tree instead.
const compactTierFactor = 4

// Optimistic is a concurrency facade over a Tree with latch-free reads
// under a single-writer model, the regime the FB+-tree line of work calls
// optimistic lock coupling: Lookup, Contains, Each, AscendRange and
// LookupBatch take no lock and never block or retry-loop, so aggregate
// read throughput scales with reader goroutines instead of serializing on
// a lock word the way an RWMutex wrapper (internal/bench's Concurrent,
// the comparison baseline) does.
//
// Writers (Insert, Delete) are serialized by an internal mutex and publish
// every change as a new immutable state: the bulk-loaded base tree plus a
// small sorted delta of pending inserts and deletions — a path-copied
// ordered map, so a publication costs O(log pending) and is one atomic
// store. A read loads the published state once and answers from it: a
// state is never changed after publication (Go's atomics give the needed
// happens-before edge), so that one load is a consistent snapshot and
// torn reads are impossible, with nothing to validate. Old states are
// reclaimed by the garbage collector once the last reader drops them,
// which is what makes the scheme safe without epoch bookkeeping.
//
// Once the delta reaches the flush threshold (derived from the base tree's
// page count), it is folded into the base tree with a page-granular
// copy-on-write merge (Tree.MergeCOW): only the pages the delta's keys
// fall into are rebuilt, and the published tree shares every untouched
// page with its predecessor, so flush cost scales with the delta size, not
// the tree size. Readers holding the old state keep a complete, consistent
// tree; the shared pages are immutable and the unshared ones are reclaimed
// by the garbage collector with the old state.
//
// With the asynchronous pipeline enabled (the default when GOMAXPROCS > 1
// at construction; see NewOptimistic and SetAsyncFlush), the merge itself
// runs off the writer's critical path: the tripping writer atomically
// pushes the delta onto a ladder of frozen immutable layers (a fresh
// empty active delta takes new writes) and a background worker drains the
// ladder — size-tiering adjacent frozen layers into each other and
// folding the bottom layer into the base tree — so writer tail latency
// tracks delta-append cost rather than merge cost even across write
// bursts that outrun a single in-flight merge. Reads consult tree ⊕
// frozen[0..n] ⊕ active through the same one-load snapshot; backpressure
// applies only when the ladder, which is four layers deep, is full;
// SyncFlush and Close drain the pipeline; SetAsyncFlush(false) restores
// the fully inline flush.
//
// Scans and batch lookups run against one consistent snapshot: writes
// published during a scan are not observed by it.
type Optimistic[K Key, V any] struct {
	// mu serializes writers: it is the shard's one writer lock. Everything
	// a write does — victim decision, commit-log append, publication,
	// group-commit barrier — happens under it (see apply).
	mu    sync.Mutex
	state atomic.Pointer[ostate[K, V]]
	// flushSettings is the facade's own, or for a shard its store's: one
	// value every shard of the store reads.
	*flushSettings

	// flusher is true while a background flush worker goroutine is live;
	// it is the spawn guard, so at most one worker runs per facade.
	flusher atomic.Bool
	// workers tracks live flush workers so Close can await their exit.
	workers sync.WaitGroup
	// inRound is true while the worker merges one round's layers off-lock;
	// roundDone (on mu) is signalled when the round has published. A writer
	// about to fold the ladder inline waits for it first, so the two never
	// merge the same layer. Guarded by mu.
	inRound   bool
	roundDone sync.Cond
	// discarded counts background rounds whose result was dropped because
	// their input layers were gone at publication.
	discarded atomic.Uint64
	// bpFolds counts inline backpressure folds: writers that tripped the
	// threshold with the ladder full and the active delta past the bound,
	// and paid the merge themselves. See Stats.BackpressureFolds.
	bpFolds atomic.Uint64

	// flushHook, when set, is called after every publication that installs
	// a new base tree (see SetFlushHook).
	flushHook atomic.Pointer[func()]

	// log, when non-nil, is the commit log a durable store plugged into
	// this shard: the writer section appends every op to it before
	// publishing. Attached before the shard is published; guarded by mu.
	log *shardLog[K, V]
}

// flushSettings is the flush pipeline's one settings value. A standalone
// Optimistic owns one; every shard of a sharded store points at its
// store's, so one atomic write to it reaches current and future shards.
type flushSettings struct {
	// asyncOff disables the background flush pipeline; flushes then run
	// inline on the tripping writer. The zero value means async is on.
	asyncOff atomic.Bool
	// flushAt pins the flush threshold; only tests set it. 0 means the
	// threshold follows the base tree (see threshold).
	flushAt atomic.Int64
}

// ostate is one immutable published state. Neither the tree nor any delta
// layer is ever mutated after publication.
type ostate[K Key, V any] struct {
	tree *Tree[K, V]
	// frozen is the ladder of deltas handed to the background worker and
	// no longer written to, bottom (oldest, next to fold into the tree)
	// first; nil or empty when no flush is in flight. Each layer's
	// tombstone counts are relative to the layered view beneath it: they
	// remove the first N matches of [surviving tree matches, then each
	// lower layer's surviving adds, bottom to top] in scan order. The
	// slice itself is immutable — ladder changes publish a fresh slice —
	// so layer pointers at stable indices identify in-flight merge
	// inputs. A recovered durable shard opens with its WAL tail as one
	// frozen layer and no worker live until its first write (see
	// OpenDurableSharded).
	frozen []*odelta[K, V]
	// delta is the active delta taking new writes. Its tombstone counts
	// are relative to tree ⊕ frozen, the same relativity rule the frozen
	// layers follow. MergeCOW materializes exactly that order, so folding
	// lower layers never changes what an upper layer means.
	delta *odelta[K, V]
	size  int // live elements: tree minus deletions plus inserts
}

// odelta is an immutable ordered map from key to that key's pending
// writes. The entry is the op a fold applies (core.MergeOp): Adds holds
// pending inserts in insertion order, and the tombstones — deletions
// applied to the layers beneath this delta's matches for the key, the
// first matches in Each order — use exactly one of two forms. The common
// counted form is Dels with Tombs == nil: pure anonymous deletes, the fast
// path every Delete-only workload stays on. Once a DeleteValue touches the
// entry it switches to the list form: Tombs holds the ordered list
// (anonymous deletes travel inside it as Any entries so recording order is
// preserved) and Dels is 0. delN counts tombstones across both forms.
//
// The map is persistent (internal/delta): a write derives a new version
// that copies only the nodes on one descent and shares the rest, so
// publishing a write costs O(log pending) however large the delta has
// grown, and every older version stays intact for the readers still
// holding it. Entries are shared between versions and never mutated; a nil
// delta is empty.
//
// f is the layer's membership filter (see keyFilter), probed with the key's
// keyHash before the map is descended. The active delta's versions share
// one: with sets the written key's bits in the parent's filter, and builds
// a larger one from the new version's map once the entries outgrow it.
// Bits are never cleared, so consumed adds and dropped entries only leave
// false positives. A nil filter, as in hand-built layers, means "probe".
type odelta[K Key, V any] struct {
	m    delta.Map[K, *core.MergeOp[K, V]]
	f    keyFilter
	addN int // total pending inserts
	delN int // total pending deletions
}

// onDescend, when a test sets it, is called with every layer whose map a
// find descends: the filter let the probe through.
var onDescend func(layer any)

// find returns the entry for k, whose keyHash is h, or nil; nil-safe.
func (d *odelta[K, V]) find(k K, h uint64) *core.MergeOp[K, V] {
	if d == nil || !d.f.mayHave(h) {
		return nil
	}
	if onDescend != nil {
		onDescend(d)
	}
	e, _ := d.m.Get(k)
	return e
}

// entry returns a copy of the entry for k (hashing to h) for the caller to
// edit — an empty one when the delta has none; nil-safe.
func (d *odelta[K, V]) entry(k K, h uint64) core.MergeOp[K, V] {
	if old := d.find(k, h); old != nil {
		return *old
	}
	return core.MergeOp[K, V]{Key: k}
}

// with returns a version of the delta (nil-safe) in which e is the entry
// for e.Key, whose keyHash is h, and the pending counts moved by addN and
// delN. An entry left with nothing pending is dropped, and a delta left
// with no entry is nil. Versions derive in a line under the writer mutex,
// so the filter growth (to twice the entries) is amortised O(1) per write.
func (d *odelta[K, V]) with(e *core.MergeOp[K, V], h uint64, addN, delN int) *odelta[K, V] {
	nd := &odelta[K, V]{addN: addN, delN: delN}
	if d != nil {
		nd.m, nd.f, nd.addN, nd.delN = d.m, d.f, d.addN+addN, d.delN+delN
	}
	if len(e.Adds) > 0 || e.Dels > 0 || len(e.Tombs) > 0 {
		nd.m = nd.m.With(e.Key, e)
		if n := nd.m.Len(); n > nd.f.capacity() {
			nd.f = filterOf(nd.m, max(minFilterKeys, 2*n))
		} else {
			nd.f.add(h)
		}
		return nd
	}
	if nd.m = nd.m.Without(e.Key); nd.m.Len() == 0 {
		return nil
	}
	return nd
}

// pending returns the delta's total pending op count.
func (d *odelta[K, V]) pending() int { return d.addN + d.delN }

// NewOptimistic wraps an existing tree. The tree must not be used directly
// afterwards: the facade owns it and replaces it wholesale on flush.
// Asynchronous flushing defaults to on when GOMAXPROCS > 1 at
// construction time and off on a single-processor runtime, where a
// background merge has no spare core to run on and only steals the
// writer's timeslice; SetAsyncFlush overrides the default either way.
func NewOptimistic[K Key, V any](t *Tree[K, V]) *Optimistic[K, V] {
	fs := &flushSettings{}
	fs.asyncOff.Store(runtime.GOMAXPROCS(0) <= 1)
	return newOptimistic(t, fs)
}

// newOptimistic wraps t in a facade that reads the flush settings fs.
func newOptimistic[K Key, V any](t *Tree[K, V], fs *flushSettings) *Optimistic[K, V] {
	o := &Optimistic[K, V]{flushSettings: fs}
	o.roundDone.L = &o.mu
	o.state.Store(&ostate[K, V]{tree: t, size: t.Len()})
	return o
}

// threshold returns the flush threshold in force over base tree t: half
// of t's page count, at least flushFloor, unless a test pinned it. A fold
// copies every page some pending write falls into, so its cost per write
// is set by pending writes per page; sizing the batch by the tree holds
// that ratio (and the pages rebuilt per write) steady however large the
// tree grows. Half, not a quarter: the fold's CPU shares the cores with
// the writer, and a write copies one delta node per level, so a tree under
// ~8 k pages trips below 4 096 pending; past that a write copies a deeper
// delta for a cheaper fold.
func (o *Optimistic[K, V]) threshold(t *Tree[K, V]) int64 {
	if n := o.flushAt.Load(); n > 0 {
		return n
	}
	return max(flushFloor, int64(t.NumPages()/2))
}

// SetAsyncFlush enables or disables the asynchronous flush pipeline
// (enabled by default on a multi-processor runtime; see NewOptimistic).
// Enabled, the writer that trips the flush threshold freezes the delta
// and a background goroutine runs the merge. Disabled,
// the tripping writer runs the merge inline (the pre-pipeline behavior,
// useful for deterministic tests and for comparison benchmarks). Safe to
// toggle at any time; disabling does not drain an in-flight flush — use
// SyncFlush or Close for that.
func (o *Optimistic[K, V]) SetAsyncFlush(enabled bool) {
	o.asyncOff.Store(!enabled)
}

// BackpressureFolds is Stats().BackpressureFolds, read alone.
func (o *Optimistic[K, V]) BackpressureFolds() uint64 { return o.bpFolds.Load() }

// SyncFlush synchronously folds every pending write — what is left of the
// frozen ladder once the background round in flight (if any) has
// published, and the active delta — into the base tree and publishes the
// clean state. Afterwards the published state has no pending deltas;
// concurrent writers may of course add new ones immediately.
func (o *Optimistic[K, V]) SyncFlush() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.inRound {
		o.roundDone.Wait()
	}
	st := o.state.Load()
	if len(st.frozen) == 0 && st.delta == nil {
		return
	}
	o.publish(&ostate[K, V]{tree: core.Recone(st.fold()), size: st.size})
}

// Close drains the flush pipeline: it disables asynchronous flushing,
// synchronously folds all pending writes, and waits for the background
// flusher (if any) to exit. The facade remains fully usable afterwards —
// subsequent writes simply flush inline on the tripping writer, and
// SetAsyncFlush(true) re-enables the pipeline. Close is idempotent; it
// must not race a concurrent SetAsyncFlush(true).
func (o *Optimistic[K, V]) Close() {
	o.asyncOff.Store(true)
	o.drain()
}

// drain folds every pending write and waits for the background flusher
// (if any) to exit. It leaves the flush settings alone, so the caller must
// keep writers out or switch async off first: a write during the drain
// could start a new worker.
func (o *Optimistic[K, V]) drain() {
	o.SyncFlush()
	o.workers.Wait()
}

// Lookup returns a value stored under k. When k has duplicates, an
// arbitrary match is returned; use Each for all of them.
func (o *Optimistic[K, V]) Lookup(k K) (V, bool) {
	st := o.state.Load()
	// The no-delta branch stays inline: st.lookup is too large to inline
	// and the extra call costs measurable latency on the hottest path.
	if st.delta == nil && len(st.frozen) == 0 {
		return st.tree.Lookup(k)
	}
	return st.lookup(k)
}

// Contains reports whether k is present.
func (o *Optimistic[K, V]) Contains(k K) bool {
	_, ok := o.Lookup(k)
	return ok
}

// Each calls fn for every element with key exactly k against one
// consistent snapshot: base-tree matches first (in page order), then
// pending inserts layer by layer in insertion order. Writes published
// while the scan runs are not observed by it.
func (o *Optimistic[K, V]) Each(k K, fn func(v V) bool) {
	o.state.Load().each(k, fn)
}

// AscendRange calls fn for elements with lo <= key <= hi in ascending key
// order against one consistent snapshot.
func (o *Optimistic[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	if hi < lo {
		return
	}
	o.state.Load().ascendRange(lo, hi, fn)
}

// LookupBatch looks up every element of keys against one consistent
// snapshot, returning values and found flags parallel to keys: the base
// tree answers the batch through the staged batch kernel (see
// Tree.LookupBatch), and only keys some delta layer mentions are resolved
// again through the layer stack.
func (o *Optimistic[K, V]) LookupBatch(keys []K) ([]V, []bool) {
	return lookupBatchStates(nil, []*ostate[K, V]{o.state.Load()}, keys)
}

// lookupBatchStates answers keys from states, the snapshots of range
// shards cut at fences (one state, no fence: a lone Optimistic): the batch
// kernel over their base trees, then the overlay pass over the keys a
// delta layer of their shard mentions.
func lookupBatchStates[K Key, V any](fences []K, states []*ostate[K, V], keys []K) ([]V, []bool) {
	vals := make([]V, len(keys))
	found := make([]bool, len(keys))
	var buf [16]*Tree[K, V] // the usual shard counts stay off the heap
	trees, layered := buf[:0], false
	for _, st := range states {
		trees = append(trees, st.tree)
		layered = layered || st.delta != nil || len(st.frozen) > 0
	}
	core.LookupFenced(fences, trees, keys, vals, found)
	for i := 0; layered && i < len(keys); i++ { // the overlay pass
		k, h := keys[i], keyHash(keys[i])
		if st := states[upperBoundKeys(fences, k)]; st.inAnyLayer(k, h) {
			vals[i], found[i] = st.first(k, h)
		}
	}
	return vals, found
}

// inAnyLayer reports whether any delta layer has an entry for k, whose
// keyHash is h. The active delta is probed first: under a write-heavy load
// it is the layer most likely to mention a recently touched key.
func (st *ostate[K, V]) inAnyLayer(k K, h uint64) bool {
	if st.delta.find(k, h) != nil {
		return true
	}
	for _, d := range st.frozen {
		if d.find(k, h) != nil {
			return true
		}
	}
	return false
}

// Len returns the number of stored elements, including pending inserts.
func (o *Optimistic[K, V]) Len() int { return o.state.Load().size }

// Stats returns the base tree's statistics with Elements and Buffered
// adjusted for pending delta writes across every layer, in O(layers):
// Buffered sums the pending inserts of the whole frozen ladder plus the
// active delta, FrozenLayers reports the ladder's current depth,
// LayerPending each frozen layer's pending op count, bottom to top, and
// BackpressureFolds the inline folds so far.
func (o *Optimistic[K, V]) Stats() Stats {
	st := o.state.Load()
	s := st.tree.Stats()
	s.Elements = st.size
	s.BackpressureFolds = o.bpFolds.Load()
	s.FrozenLayers = len(st.frozen)
	if len(st.frozen) > 0 {
		s.LayerPending = make([]int, len(st.frozen))
		for i, d := range st.frozen {
			s.Buffered += d.addN
			s.LayerPending[i] = d.pending()
		}
	}
	if st.delta != nil {
		s.Buffered += st.delta.addN
	}
	return s
}

// mustNotBeNaN panics on a NaN key: it compares false against everything,
// so it would corrupt the sorted-delta invariant silently.
func mustNotBeNaN[K Key](op byte, k K) {
	if k != k {
		panic("fitingtree: " + opNames[op] + " with NaN key")
	}
}

// apply is the one writer section; Insert, Delete, DeleteValue and the
// sharded engine's routed write are its callers. Under the writer mutex it
// decides the victim (a delete that finds none changes nothing and logs
// nothing), appends the op to the commit log when the shard carries one (a
// failed append publishes nothing), publishes the next state, and counts
// the op against the log's group-commit barrier (a failed sync leaves the
// op applied). Either log failure poisons the store, and a poisoned store
// fails fast before anything else; without a log the error is always nil.
//
// A write that may fold the ladder inline first waits for the background
// round in flight to publish (the wait releases the mutex, so it comes
// before the victim decision): the round's layers are then in the tree,
// the ladder has a free slot, and the write usually pushes instead of
// folding — writer and worker never merge the same layer.
func (o *Optimistic[K, V]) apply(op byte, k K, v V) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.inRound && o.flushPlan(o.state.Load(), 1) >= flushFold {
		o.roundDone.Wait()
	}
	if o.log != nil {
		if err := o.log.Err(); err != nil {
			return false, err
		}
	}
	st := o.state.Load()
	delta, size, ok := st.delta, st.size-1, true
	if op == walOpInsert {
		delta, size = st.delta.withInsert(k, v), st.size+1
	} else {
		delta, ok = st.withDelete(op, k, v)
	}
	if !ok {
		return false, nil
	}
	if o.log != nil {
		if err := o.log.append(op, k, v); err != nil {
			return false, err
		}
	}
	o.publishWrite(o.maybeFlush(&ostate[K, V]{tree: st.tree, frozen: st.frozen, delta: delta, size: size}))
	if o.log != nil {
		return true, o.log.Commit()
	}
	return true, nil
}

// Insert adds (k, v). Panics on a NaN key.
func (o *Optimistic[K, V]) Insert(k K, v V) {
	mustNotBeNaN(walOpInsert, k)
	o.apply(walOpInsert, k, v)
}

// Delete removes one element with key k and reports whether one was found.
//
// Duplicate semantics: a pending (not yet frozen or flushed) insert of k
// is consumed first, newest first. Otherwise the delta records one more
// tombstone for k, and tombstones count matches in scan order — the first
// N matches that Each(k, ...) would visit (page order along the chain,
// page data before buffered inserts within a page, then each frozen
// layer's pending inserts, bottom to top) are treated as removed.
// Flushing preserves exactly this accounting, so which of several
// duplicates disappears is deterministic given the scan order and the
// flush points, unlike Tree.Delete, which removes whichever duplicate its
// page search finds first. Note that with the asynchronous flusher
// enabled (the default), *when* a pending insert stops being consumable —
// because a freeze pushed it onto the frozen ladder — depends on
// background flush timing, so among duplicates holding distinct values
// the victim can vary from run to run; workloads that need a
// deterministic victim should name it with DeleteValue, or disable async
// flushing (SetAsyncFlush(false)) / quiesce with SyncFlush before
// deleting. Panics on a NaN key.
func (o *Optimistic[K, V]) Delete(k K) bool {
	mustNotBeNaN(walOpDelete, k)
	ok, _ := o.apply(walOpDelete, k, *new(V))
	return ok
}

// DeleteValue removes one element with key k whose value equals v under
// Go equality, reporting whether one was removed. Unlike Delete, the
// victim among distinct-valued duplicates is named by the caller, so the
// outcome cannot depend on where background flush boundaries fell: a
// pending insert of (k, v) is consumed first, newest first, and otherwise
// the delta records a value tombstone that deletes the first live match
// carrying v in scan order wherever it currently resides — page data,
// frozen layer, or a flushed page later. It panics on a NaN key and for
// non-comparable value types.
func (o *Optimistic[K, V]) DeleteValue(k K, v V) bool {
	mustNotBeNaN(walOpDeleteValue, k)
	ok, _ := o.apply(walOpDeleteValue, k, v)
	return ok
}

// SetFlushHook registers fn to run after every publication that installs
// a new base tree — an inline fold, a background fold of the ladder's
// bottom layer, a SyncFlush — on whichever goroutine performed it.
// Ladder compactions merge frozen layers into each other without touching
// the base tree, so they do not fire the hook. The durability layer uses
// it as its checkpoint trigger: a new base tree means dirty chunks exist
// to persist. fn runs with the writer mutex held, so it must not block or
// call back into this facade's write path; hand real work to another
// goroutine. SetFlushHook(nil) unregisters.
func (o *Optimistic[K, V]) SetFlushHook(fn func()) {
	if fn == nil {
		o.flushHook.Store(nil)
		return
	}
	o.flushHook.Store(&fn)
}

// publish installs next as the current state and fires the flush hook
// when the base tree changed. Callers hold o.mu.
func (o *Optimistic[K, V]) publish(next *ostate[K, V]) {
	prev := o.state.Load()
	o.state.Store(next)
	if next.tree != prev.tree {
		if h := o.flushHook.Load(); h != nil {
			(*h)()
		}
	}
}

// publishWrite publishes a writer's next state and, when it carries
// frozen layers, makes sure a background flush worker is live to drain
// them. The kick must follow the publish: a worker spawned first could
// load the pre-freeze state, find an empty ladder, and exit. A recovered
// durable shard's tail layer waits for this kick: the open starts no
// worker. Callers hold o.mu.
func (o *Optimistic[K, V]) publishWrite(next *ostate[K, V]) {
	o.publish(next)
	if len(next.frozen) > 0 {
		o.kick()
	}
}

// What a write does about the pending deltas once it is published, in
// flushPlan's order of preference.
const (
	flushNone         = iota // below the threshold, or ladder full and still absorbing
	flushPush                // freeze the active delta onto the ladder
	flushFold                // inline mode: fold everything on the writer
	flushBackpressure        // ladder full and the active delta at its bound: fold everything
)

// flushPlan decides what a write leaving st's active delta with extra more
// pending ops does. In asynchronous mode (the default) a delta that
// reaches the flush threshold is pushed onto the frozen ladder; only when
// the ladder is full (maxFrozenLayers) do writers keep absorbing writes
// into the active delta, and only past the backpressure bound does the
// tripping writer fold the whole ladder itself. In inline mode
// (SetAsyncFlush(false)) the fold always runs on the tripping writer. One
// load of the threshold serves both the trip check and the backpressure
// check: with two, a threshold re-pinned in between (tests re-pin live
// facades) could yield a bound inconsistent with the threshold that
// tripped.
func (o *Optimistic[K, V]) flushPlan(st *ostate[K, V], extra int) int {
	flushAt := o.threshold(st.tree)
	pending := int64(extra)
	if st.delta != nil {
		pending += int64(st.delta.pending())
	}
	switch {
	case pending < flushAt:
		return flushNone
	case o.asyncOff.Load():
		return flushFold
	case len(st.frozen) < maxFrozenLayers:
		return flushPush
	case pending < flushAt*backpressureFactor:
		return flushNone
	}
	return flushBackpressure
}

// maybeFlush carries out flushPlan on the state a write is about to
// publish. A push is an O(1) slice append handing the delta to the
// background worker as an immutable merge input, with a fresh active delta
// taking new writes. A fold is the page-granular copy-on-write merge: each
// delta walks out as a sorted op list (keys ascending, adds in insertion
// order, tombstone counts), and MergeCOW rebuilds only the pages those
// keys fall into while the new state shares every other page with the old
// one — O(delta · pages touched), not O(n). Frozen layers can linger in
// inline mode from a just-disabled pipeline; they fold below the active
// delta, the same layering reads apply. Callers hold o.mu and, for a fold,
// have let the round in flight publish (see apply).
func (o *Optimistic[K, V]) maybeFlush(st *ostate[K, V]) *ostate[K, V] {
	switch o.flushPlan(st, 0) {
	case flushNone:
		return st
	case flushPush:
		// The three-index append always copies the spine, so published
		// ladders never share a backing array with a longer successor.
		// publishWrite kicks the worker.
		frozen := append(st.frozen[:len(st.frozen):len(st.frozen)], st.delta)
		return &ostate[K, V]{tree: st.tree, frozen: frozen, size: st.size}
	case flushBackpressure:
		// The worker is between rounds with every ladder slot occupied and
		// the active delta has grown past the bound. Fold everything
		// synchronously so pending state cannot grow without limit.
		o.bpFolds.Add(1)
	}
	return &ostate[K, V]{tree: core.Recone(st.fold()), size: st.size}
}

// kick ensures a background flush worker is live. At most one worker runs
// per facade; the CAS is the spawn guard. Callers hold o.mu, which is
// what orders workers.Add against Close's workers.Wait.
func (o *Optimistic[K, V]) kick() {
	if o.flusher.CompareAndSwap(false, true) {
		o.workers.Add(1)
		go o.flushWorker()
	}
}

// flushWorker drains the frozen ladder. Each round it either compacts the
// bottom-most adjacent pair of frozen layers into one (size-tiered: while
// the lower layer is within compactTierFactor of the upper and the
// combined layer stays under the backpressure bound) or folds the bottom
// layer into the base tree — so tree folds batch several deltas' worth of
// writes while the ladder keeps absorbing pushes. All merging runs with
// no lock held; the worker takes the writer mutex briefly to open a round
// (read the state it will merge and raise inRound) and again to publish
// it. Writer pushes only append above the layers being merged, so they
// never invalidate a round, and whoever would replace the tree or the
// ladder wholesale — SyncFlush, an inline or backpressure fold — waits for
// the open round first, so a round's inputs are still in place when it
// publishes. Deciding to exit under the same mutex that orders pushes and
// kicks means no push can slip between the last look and the exit.
func (o *Optimistic[K, V]) flushWorker() {
	defer o.workers.Done()
	for {
		o.mu.Lock()
		st := o.state.Load()
		if len(st.frozen) == 0 {
			o.flusher.Store(false)
			o.mu.Unlock()
			return
		}
		o.inRound = true
		o.mu.Unlock()
		if i := compactPick(st.frozen, o.threshold(st.tree)); i >= 0 {
			o.compactPair(st, i)
		} else {
			o.foldBottom(st)
		}
	}
}

// publishRound closes a background round under the writer mutex: next
// maps the current state to the one carrying the round's result, or to nil
// when the round's input layers are no longer where it found them (only
// hand-driven rounds in tests and direct state surgery get there; the
// result is dropped and counted).
func (o *Optimistic[K, V]) publishRound(next func(cur *ostate[K, V]) *ostate[K, V]) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inRound = false
	o.roundDone.Broadcast()
	if ns := next(o.state.Load()); ns != nil {
		o.publish(ns)
	} else {
		o.discarded.Add(1)
	}
}

// compactPick returns the index of the bottom-most adjacent frozen pair
// the scheduler would compact, or -1 when the bottom layer should fold
// into the base tree instead. Compacting keeps a layer out of the tree —
// a frozen-to-frozen merge costs O(layer) flat array work instead of a
// page-granular tree pass — so it wins while layers are of comparable
// size; once the lower layer outgrows compactTierFactor times the upper
// or the pair would exceed the backpressure bound, folding is the better
// deal.
func compactPick[K Key, V any](frozen []*odelta[K, V], flushAt int64) int {
	limit := int(flushAt) * backpressureFactor
	for i := 0; i+1 < len(frozen); i++ {
		lo, up := frozen[i].pending(), frozen[i+1].pending()
		if lo <= compactTierFactor*up && lo+up <= limit {
			return i
		}
	}
	return -1
}

// compactPair merges frozen layers i and i+1 into a single layer off-lock
// and publishes the shortened ladder. The merge inputs are identified by
// layer pointer (ladder slices are immutable, so a layer pointer at a
// stable index identifies the merge input).
func (o *Optimistic[K, V]) compactPair(st *ostate[K, V], i int) {
	combined := st.compactLayers(i)
	o.publishRound(func(cur *ostate[K, V]) *ostate[K, V] {
		if cur.tree != st.tree || len(cur.frozen) <= i+1 ||
			cur.frozen[i] != st.frozen[i] || cur.frozen[i+1] != st.frozen[i+1] {
			return nil
		}
		frozen := make([]*odelta[K, V], 0, len(cur.frozen)-1)
		frozen = append(frozen, cur.frozen[:i]...)
		if combined != nil {
			frozen = append(frozen, combined)
		}
		frozen = append(frozen, cur.frozen[i+2:]...)
		if len(frozen) == 0 {
			frozen = nil
		}
		return &ostate[K, V]{tree: cur.tree, frozen: frozen, delta: cur.delta, size: cur.size}
	})
}

// compactLayers composes frozen layers i and i+1 into one delta whose
// tombstone accounting is relative to the view beneath layer i, using
// CompactOps. The beneath-view matches it needs for tombstone-spill
// decisions are the per-key pass over tree ⊕ frozen[0..i-1], the exact
// view layer i's own tombstones are relative to.
func (st *ostate[K, V]) compactLayers(i int) *odelta[K, V] {
	eachBeneath := func(k K, fn func(V) bool) { st.eachIn(i, k, keyHash(k), fn) }
	ops := core.CompactOps(st.frozen[i].ops(), st.frozen[i+1].ops(), eachBeneath)
	return deltaFromOps(ops)
}

// foldBottom merges the ladder's bottom layer into the base tree off-lock,
// re-cones and publishes it, identified by layer pointer like compactPair.
func (o *Optimistic[K, V]) foldBottom(st *ostate[K, V]) {
	merged := core.Recone(st.tree.MergeCOW(st.frozen[0].ops()), st.frozen[0].pending())
	o.publishRound(func(cur *ostate[K, V]) *ostate[K, V] {
		if cur.tree != st.tree || len(cur.frozen) == 0 || cur.frozen[0] != st.frozen[0] {
			return nil
		}
		// Ladder slices are immutable, so the published remainder can share
		// the current slice's backing array.
		frozen := cur.frozen[1:]
		if len(frozen) == 0 {
			frozen = nil
		}
		return &ostate[K, V]{tree: merged, frozen: frozen, delta: cur.delta, size: cur.size}
	})
}

// fold returns the state's base tree with every pending delta physically
// merged in, bottom frozen layer first — the same layering reads apply —
// and how many pending ops went in: a fold that publishes its tree as the
// base re-cones it for them (core.Recone), a checkpoint's does not.
func (st *ostate[K, V]) fold() (*Tree[K, V], int) {
	layers, n := make([][]core.MergeOp[K, V], 0, len(st.frozen)+1), 0
	for _, d := range st.frozen {
		layers, n = append(layers, d.ops()), n+d.pending()
	}
	if st.delta != nil {
		layers, n = append(layers, st.delta.ops()), n+st.delta.pending()
	}
	return st.tree.MergeCOW(layers...), n
}

// ops walks the delta out in key order: MergeCOW's sorted op-list form.
func (d *odelta[K, V]) ops() []core.MergeOp[K, V] {
	ops := make([]core.MergeOp[K, V], 0, d.m.Len())
	d.m.Ascend(func(_ K, e *core.MergeOp[K, V]) bool {
		ops = append(ops, *e)
		return true
	})
	return ops
}

// deltaFromOps bulk-loads a delta from a sorted op list (CompactOps
// output), whose elements become the entries, with a filter sized for
// them; nil when the list is empty. The leaves are filled from the list
// itself, with no key or entry array in between.
func deltaFromOps[K Key, V any](ops []core.MergeOp[K, V]) *odelta[K, V] {
	if len(ops) == 0 {
		return nil
	}
	d := &odelta[K, V]{f: make(keyFilter, (len(ops)+3)/4)}
	d.m = delta.FromSortedFunc(len(ops), func(i int) (K, *core.MergeOp[K, V]) {
		op := &ops[i]
		d.addN += len(op.Adds)
		d.delN += op.Dels + len(op.Tombs)
		d.f.add(keyHash(op.Key))
		return op.Key, op
	})
	return d
}

// filterOf returns a filter sized for capacity keys holding every key of m.
func filterOf[K Key, V any](m delta.Map[K, V], capacity int) keyFilter {
	f := make(keyFilter, (capacity+3)/4)
	m.Ascend(func(k K, _ V) bool {
		f.add(keyHash(k))
		return true
	})
	return f
}

// lookup resolves a point read against this state's full layer stack: a
// key no layer mentions is the tree's to answer, and otherwise the answer
// is the first live match in Each order.
func (st *ostate[K, V]) lookup(k K) (v V, ok bool) {
	if h := keyHash(k); st.inAnyLayer(k, h) {
		return st.first(k, h)
	}
	return st.tree.Lookup(k)
}

// first returns the first live match of k (hashing to h) in Each order.
func (st *ostate[K, V]) first(k K, h uint64) (v V, ok bool) {
	st.eachIn(len(st.frozen)+1, k, h, func(x V) bool {
		v, ok = x, true
		return false
	})
	return v, ok
}

// each visits every live element with key k: surviving base matches, then
// each frozen layer's pending inserts bottom to top, then active pending
// inserts.
func (st *ostate[K, V]) each(k K, fn func(v V) bool) {
	st.eachIn(len(st.frozen)+1, k, keyHash(k), fn)
}

// eachIn is the per-key pass through the bottom n layers (the frozen
// ladder, then the active delta): it streams k's tree matches, then each
// layer's adds bottom to top, and offers every match to the tombstones of
// the layers above where it came from, lowest first. A layer's tombstones
// address the scan order of the view beneath it, which is exactly the
// order in which matches reach them, so one loop applies the whole stack.
// h is k's keyHash, shared by the layers' probes.
func (st *ostate[K, V]) eachIn(n int, k K, h uint64, fn func(v V) bool) {
	type layer struct {
		ts   core.TombSet[V]
		adds []V
	}
	// Only the layers that mention k take part; the buffer covers the
	// whole ladder.
	var buf [maxFrozenLayers + 1]layer
	ls := buf[:0]
	for i := 0; i < n; i++ {
		d := st.delta
		if i < len(st.frozen) {
			d = st.frozen[i]
		}
		if e := d.find(k, h); e != nil {
			ls = append(ls, layer{core.NewTombSet(e.Dels, e.Tombs), e.Adds})
		}
	}
	// live reports whether v survives the tombstones of ls[from:].
	live := func(from int, v V) bool {
		for j := from; j < len(ls); j++ {
			if ls[j].ts.Consume(v) {
				return false
			}
		}
		return true
	}
	stopped := false
	st.tree.Each(k, func(v V) bool {
		stopped = live(0, v) && !fn(v)
		return !stopped
	})
	for j := 0; j < len(ls) && !stopped; j++ {
		for _, v := range ls[j].adds {
			if live(j+1, v) && !fn(v) {
				return
			}
		}
	}
}

// scanFn is an ordered range scan: it calls fn for every element with
// lo <= key <= hi in ascending key order.
type scanFn[K Key, V any] func(lo, hi K, fn func(k K, v V) bool)

// overlayScan layers one delta over an ordered range scan: per key, the
// entry's tombstones consume matches of the underlying run (counted ones
// its head, value ones each their first equal-valued match) and pending
// inserts are emitted after it, with delta-only keys merged in key order.
// One application per layer produces the N-layer protocol: the range form
// of eachIn.
func overlayScan[K Key, V any](base scanFn[K, V], d *odelta[K, V]) scanFn[K, V] {
	if d == nil {
		return base
	}
	return func(lo, hi K, fn func(k K, v V) bool) {
		// The cursor walks the delta's entries from lo on, only as far as
		// the scan gets: a scan stopped early pays for the entries it
		// passed, not for the range it named.
		var it delta.Iter[K, *core.MergeOp[K, V]]
		it.SeekGE(d.m, lo)
		// emitDeltaTo flushes pending inserts for delta keys up to bound
		// (exclusive, or inclusive when incl), reporting false on early stop.
		emitDeltaTo := func(bound K, incl bool) bool {
			for ; it.Valid(); it.Next() {
				dk := it.Key()
				if dk > hi || dk > bound || (dk == bound && !incl) {
					return true
				}
				for _, v := range it.Value().Adds {
					if !fn(dk, v) {
						return false
					}
				}
			}
			return true
		}
		stopped := false
		var cur K
		haveCur := false
		var ts core.TombSet[V]
		base(lo, hi, func(k K, v V) bool {
			if !haveCur || k != cur {
				if !emitDeltaTo(k, false) {
					stopped = true
					return false
				}
				haveCur, cur, ts = true, k, core.TombSet[V]{}
				if it.Valid() && it.Key() == k {
					ts = core.NewTombSet(it.Value().Dels, it.Value().Tombs)
				}
			}
			if ts.Consume(v) {
				return true
			}
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
		emitDeltaTo(hi, true)
	}
}

// ascendRange merges the base-tree scan with every pending delta in key
// order: per key, surviving base matches first, then each frozen layer's
// pending inserts bottom to top, then active pending inserts, each in
// insertion order.
func (st *ostate[K, V]) ascendRange(lo, hi K, fn func(k K, v V) bool) {
	s := st.tree.AscendRange
	for _, d := range st.frozen {
		s = overlayScan(s, d)
	}
	overlayScan(s, st.delta)(lo, hi, fn)
}

// withInsert returns a version of the delta (nil-safe) with v pending
// under k. Entries are shared between versions, so the touched entry is
// rebuilt, its adds copied by the cap-trimmed append.
func (d *odelta[K, V]) withInsert(k K, v V) *odelta[K, V] {
	h := keyHash(k)
	e := d.entry(k, h)
	e.Adds = append(e.Adds[:len(e.Adds):len(e.Adds)], v)
	return d.with(&e, h, 1, 0)
}

// withDelete returns a version of the state's active delta with one
// element of key k removed by a delete op (anonymous, or for a value
// delete one whose value equals v), or ok=false when no such live element
// exists. A pending insert in the active delta is consumed first (see
// consumeAdd); otherwise the delete needs a live victim in the layered
// view beneath the active delta — surviving base matches, then each frozen
// layer's surviving adds, bottom to top, after this entry's existing
// tombstones — and is recorded as one more active tombstone (see addTomb).
// With no active add that can be the victim, such a victim is exactly a
// live element of the full stack: for an anonymous delete of a key no
// layer mentions the tree's lookup finds one, and otherwise the per-key
// pass looks for one (carrying v, for a value delete). Frozen layers are
// immutable (a background merge may be reading them), so even when the
// victim is a frozen add the tombstone goes on the active delta — the
// accounting reaches down through every layer.
func (st *ostate[K, V]) withDelete(op byte, k K, v V) (*odelta[K, V], bool) {
	d, h := st.delta, keyHash(k)
	e := d.entry(k, h)
	if consumeAdd(&e, op, v) {
		return d.with(&e, h, -1, 0), true
	}
	alive := false
	if op == walOpDelete && !st.inAnyLayer(k, h) {
		_, alive = st.tree.Lookup(k)
	} else {
		st.eachIn(len(st.frozen)+1, k, h, func(w V) bool {
			alive = op == walOpDelete || any(w) == any(v)
			return !alive
		})
	}
	if !alive {
		return nil, false
	}
	addTomb(&e, op, v)
	return d.with(&e, h, 0, 1), true
}

// consumeAdd removes from e the pending insert a delete op takes: the
// newest, or for a value delete the newest carrying v. It reports whether
// there was one. Entries are shared between delta versions, so the
// shortened adds either reslice (the newest goes) or copy, never writing
// the shared array.
func consumeAdd[K Key, V any](e *core.MergeOp[K, V], op byte, v V) bool {
	j := len(e.Adds) - 1
	if op == walOpDeleteValue {
		for j >= 0 && any(e.Adds[j]) != any(v) {
			j--
		}
	}
	if j < 0 {
		return false
	}
	e.Adds = append(e.Adds[:j:j], e.Adds[j+1:]...)
	return true
}

// addTomb records one more tombstone on e for a delete op: counted while
// every tombstone is anonymous, the ordered list form from the first value
// delete on, with the anonymous ones carried as Any entries so recording
// order is preserved. The cap trim makes the append copy, never writing a
// shared list.
func addTomb[K Key, V any](e *core.MergeOp[K, V], op byte, v V) {
	if op == walOpDelete && e.Tombs == nil {
		e.Dels++
		return
	}
	if e.Tombs == nil {
		e.Tombs = make([]core.Tomb[V], e.Dels)
		for j := range e.Tombs {
			e.Tombs[j].Any = true
		}
		e.Dels = 0
	}
	e.Tombs = append(e.Tombs[:len(e.Tombs):len(e.Tombs)], core.Tomb[V]{Any: op == walOpDelete, Val: v})
}
