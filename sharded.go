package fitingtree

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fitingtree/internal/core"
)

const (
	// rebalanceFactor is the skew factor at which a sharded store
	// recomputes its shard boundaries: a rebalance is considered once the
	// largest shard holds more than this factor times the mean shard size.
	rebalanceFactor = 3.0
	// shardSkewCheckEvery gates the O(shards) skew check to one write in
	// this many, keeping it off the per-write hot path.
	shardSkewCheckEvery = 64
	// minShardElements is the smallest mean shard size worth balancing;
	// below want*minShardElements total elements the facade never
	// re-partitions.
	minShardElements = 64
)

// Sharded is the range-partitioned multi-writer store, in memory: a
// shardEngine with no durability backend. DurableSharded is the same
// engine with one plugged in; everything declared on the engine — reads,
// flush control, diagnostics — reaches both types by method promotion.
//
// Every key routes to exactly one Optimistic shard, so per-key semantics —
// duplicate ordering, tombstone accounting, flush behavior — are exactly
// Optimistic's.
type Sharded[K Key, V any] struct {
	shardEngine[K, V]
}

// shardEngine is the one sharded store both public types are built on: a
// set of Optimistic shards behind a distribution-aware partitioner whose
// fence keys are picked from the base tree's page boundaries, so shards
// carry balanced element counts rather than balanced key spans (skewed
// data gets narrow hot shards and wide cold ones).
//
// Reads (Lookup, Contains, Each, AscendRange, LookupBatch) stay latch-free
// end to end: they load the shard set through an atomic pointer and then
// run Optimistic's snapshot protocol inside the owning shard(s), taking no
// lock and never blocking. AscendRange stitches per-shard snapshots in
// fence order; LookupBatch reads each shard through one snapshot and runs
// the batch kernel across the shards' base trees, the tree chosen per key.
//
// Writes route to one shard and run that shard's writer section
// (Optimistic.apply) under its writer mutex — the only per-shard lock — so
// writers whose keys land on different shards proceed fully concurrently:
// each shard keeps its own delta, its own page-granular copy-on-write
// flush, its own background flusher (asynchronous by default on
// multi-processor runtimes; see Optimistic, SetAsyncFlush, SyncFlush) and,
// on a durable store, its own commit log. The reshape RWMutex is held in
// read mode for the duration of a write; its exclusive side is taken only
// by rebalances and coherent multi-shard snapshots, which are rare.
//
// When one shard's size drifts past a factor of the mean (rebalanceFactor),
// or the store is under its shard target, the engine re-partitions under
// the exclusive lock: fresh fences are picked from the shards' page
// boundaries, the shards' page chain is cut at them — whole pages move to
// their new shard by reference — the durability backend (if
// any) commits the new generation, and a new shard set is published
// atomically. Readers holding the old set keep complete, consistent
// snapshots.
type shardEngine[K Key, V any] struct {
	// reshape is held shared by writers (writes on different shards still
	// run concurrently) and exclusively by rebalance, coherent multi-shard
	// snapshots and a durable Close. Readers never touch it.
	reshape sync.RWMutex
	set     atomic.Pointer[shardSet[K, V]]

	opts         Options       // every shard's tree options; fixed once the first set is built
	want         int           // target shard count
	factor       float64       // rebalance skew factor: rebalanceFactor, unless a test set another before writing
	writes       atomic.Uint64 // write counter gating the skew check
	rebalancedAt atomic.Int64  // total elements when fences were last computed

	// flushSettings is the one value every shard, current and future,
	// reads its flush settings from.
	flushSettings

	// durable is the durability plug — the store this engine is embedded
	// in — or nil for an in-memory store. Shards built for it carry commit
	// logs, and rebalance brackets itself with its beginRebalance and
	// commitRebalance: the only steps of the engine that differ between
	// the two public types.
	durable *DurableSharded[K, V]
}

// shardSet is one immutable published partitioning: the fence keys and the
// shards they induce. The slice headers and fences are never mutated after
// publication; the shards themselves are live Optimistic facades (each
// carrying its commit log when the store is durable).
type shardSet[K Key, V any] struct {
	// bounds holds len(shards)-1 strictly increasing fence keys: shard i
	// owns keys in [bounds[i-1], bounds[i]), with the first and last
	// ranges open-ended.
	bounds []K
	shards []*Optimistic[K, V]
}

// balancedFences picks the fence keys for a shard split of the chain the
// trees form, read in order as one (a shard set's base trees, or the one
// tree a store is built from). The chain's page start keys, weighted by
// element count, are the preferred cut points — they are the distribution
// summary the tree already maintains, so skewed data naturally gets narrow
// hot shards and wide cold ones, and a fence there moves whole pages. But
// the segmentation can be too coarse to balance on: near-linear data
// collapses into a handful of huge segments (one, in the limit), leaving no
// candidate anywhere near the even share. When some range of the
// page-start fences holds more than 1.5× the even share, the partitioner
// falls back to element-count quantiles, found from page weights and
// in-page offsets (core.QuantileFences), each cut advanced past its
// duplicate run so every key still routes to exactly one shard.
func balancedFences[K Key, V any](trees []*Tree[K, V], want int) []K {
	var starts []K
	var weights []int
	for _, t := range trees {
		s, w := t.PageBounds()
		starts, weights = append(starts, s...), append(weights, w...)
	}
	bounds := core.PartitionByWeight(starts, weights, want)
	if len(bounds) == want-1 {
		total := 0
		for _, w := range weights {
			total += w
		}
		share := total / want
		si := 0
		balanced := true
		for i := 0; i <= len(bounds); i++ {
			mass := 0
			for si < len(starts) && (i == len(bounds) || starts[si] < bounds[i]) {
				mass += weights[si]
				si++
			}
			if mass > share+share/2 {
				balanced = false
				break
			}
		}
		if balanced {
			return bounds
		}
	}
	return core.QuantileFences(trees, want)
}

// upperBoundKeys returns the index of the first key > k in a sorted slice.
func upperBoundKeys[K Key](keys []K, k K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// shardFor returns the index of the shard owning k: the number of fences
// <= k.
func (ss *shardSet[K, V]) shardFor(k K) int {
	return upperBoundKeys(ss.bounds, k)
}

// NewSharded splits an existing tree into at most shards range partitions,
// each wrapped in its own Optimistic facade. Fences are chosen from the
// tree's page boundaries weighted by element count (with an element-
// quantile fallback when the segmentation is too coarse — see
// balancedFences), so the initial shards are balanced for the data's
// actual distribution. Fewer shards are created when the data cannot
// support the requested count (e.g. one giant duplicate run); the facade
// grows toward the target as data arrives. The tree's pages become the
// shards' pages — only a page a fence cuts through is rebuilt — so the
// tree must not be used directly afterwards: the facade owns its content,
// and an edit through the tree would corrupt a shard.
func NewSharded[K Key, V any](t *Tree[K, V], shards int) (*Sharded[K, V], error) {
	s := &Sharded[K, V]{}
	if err := s.init(t.Options(), shards); err != nil {
		return nil, err
	}
	s.set.Store(s.load(t))
	return s, nil
}

// init sets the engine's options, shard target and tuning defaults.
func (e *shardEngine[K, V]) init(opts Options, want int) error {
	if want < 1 {
		return fmt.Errorf("fitingtree: shard count %d, must be >= 1", want)
	}
	e.opts, e.want = opts, want
	// Same adaptive default as NewOptimistic: async flushing needs a spare
	// core to run the background merges on.
	e.asyncOff.Store(runtime.GOMAXPROCS(0) <= 1)
	e.factor = rebalanceFactor
	return nil
}

// load cuts t into the engine's first shard set, fenced along the tree's
// page boundaries (core.Cut: whole pages move by reference, and a load
// that comes out as one shard wraps t as it stands). The caller publishes
// the set.
func (e *shardEngine[K, V]) load(t *Tree[K, V]) *shardSet[K, V] {
	e.rebalancedAt.Store(int64(t.Len()))
	trees := []*Tree[K, V]{t}
	bounds := balancedFences(trees, e.want)
	return e.shardSetOf(bounds, core.Cut(trees, bounds))
}

// shardSetOf wraps one tree per fence range into a shard set, every shard
// reading the engine's flush settings.
func (e *shardEngine[K, V]) shardSetOf(bounds []K, trees []*Tree[K, V]) *shardSet[K, V] {
	shards := make([]*Optimistic[K, V], len(trees))
	for i, tr := range trees {
		shards[i] = newOptimistic(tr, &e.flushSettings)
	}
	return &shardSet[K, V]{bounds: bounds, shards: shards}
}

// SetAsyncFlush enables or disables the asynchronous flush pipeline on
// every shard (see Optimistic.SetAsyncFlush; enabled by default on a
// multi-processor runtime). Safe to call at any time; every shard reads
// the one value, so shards created by later rebalances see it too.
func (e *shardEngine[K, V]) SetAsyncFlush(enabled bool) {
	e.asyncOff.Store(!enabled)
}

// SyncFlush synchronously folds every shard's pending writes — frozen
// deltas of in-flight background flushes and active deltas alike — into
// the shard base trees. Shards flush in parallel: each fold is an
// independent page-granular merge of that shard's pages. On a durable
// store durability is unaffected (the logs already hold the deltas); it
// makes the next Checkpoint's dirty-chunk set exactly the folds'
// published one.
func (e *shardEngine[K, V]) SyncFlush() {
	e.reshape.RLock()
	defer e.reshape.RUnlock()
	forEachShardParallel(e.set.Load().shards, func(_ int, sh *Optimistic[K, V]) { sh.SyncFlush() })
}

// Close drains every shard's flush pipeline and disables asynchronous
// flushing, including for shards created by later rebalances. The facade
// remains usable afterwards — writes flush inline — and SetAsyncFlush
// re-enables the pipeline. Close is idempotent.
func (s *Sharded[K, V]) Close() {
	s.asyncOff.Store(true)
	s.reshape.RLock()
	defer s.reshape.RUnlock()
	s.set.Load().quiesce()
}

// runParallel runs fn(0) … fn(n-1) on the given number of goroutines, the
// caller being one, and returns when all have.
func runParallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for ; workers > 1; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// fanOut is runParallel on min(GOMAXPROCS, n) goroutines: for CPU-bound
// pieces (one processor runs them inline, in order).
func fanOut(n int, fn func(i int)) { runParallel(min(runtime.GOMAXPROCS(0), n), n, fn) }

// forEachShardParallel runs fn over every shard at once, whatever the
// processor count — the shards wait on flush workers and fsyncs — and
// returns when all have; a single shard runs inline.
func forEachShardParallel[K Key, V any](shards []*Optimistic[K, V], fn func(i int, sh *Optimistic[K, V])) {
	runParallel(len(shards), len(shards), func(i int) { fn(i, shards[i]) })
}

// Shards returns the current number of shards. It can be lower than the
// target the store was built with while the data is too small to split,
// and reaches the target through rebalances as data arrives.
func (e *shardEngine[K, V]) Shards() int { return len(e.set.Load().shards) }

// ShardSizes returns the current per-shard element counts in fence order —
// a balance diagnostic. Like Len, the counts are a momentary aggregate
// under concurrent writers.
func (e *shardEngine[K, V]) ShardSizes() []int {
	ss := e.set.Load()
	sizes := make([]int, len(ss.shards))
	for i, sh := range ss.shards {
		sizes[i] = sh.Len()
	}
	return sizes
}

// Bounds returns a copy of the current fence keys (len Shards()-1,
// strictly increasing): shard i owns keys in [bounds[i-1], bounds[i]).
func (e *shardEngine[K, V]) Bounds() []K {
	return append([]K(nil), e.set.Load().bounds...)
}

// Len returns the total number of stored elements across all shards,
// including pending delta inserts.
func (e *shardEngine[K, V]) Len() int {
	n := 0
	for _, sh := range e.set.Load().shards {
		n += sh.Len()
	}
	return n
}

// Stats aggregates the shards' statistics in O(shards): counts, sizes
// and counters sum, the frozen-ladder depth takes the maximum (per-layer
// pending counts are per-shard and left unset — see Optimistic.Stats for
// them).
func (e *shardEngine[K, V]) Stats() Stats {
	var agg Stats
	for _, sh := range e.set.Load().shards {
		st := sh.Stats()
		agg.Elements += st.Elements
		agg.Pages += st.Pages
		agg.Chunks += st.Chunks
		agg.Buffered += st.Buffered
		agg.Deletes += st.Deletes
		agg.FrozenLayers = max(agg.FrozenLayers, st.FrozenLayers)
		agg.IndexSize += st.IndexSize
		agg.DataSize += st.DataSize
		agg.Counters.Inserts += st.Counters.Inserts
		agg.Counters.Deletes += st.Counters.Deletes
		agg.Counters.Merges += st.Counters.Merges
		agg.Counters.PagesMade += st.Counters.PagesMade
		agg.Counters.Refits += st.Counters.Refits
		agg.BackpressureFolds += st.BackpressureFolds
	}
	return agg
}

// Lookup returns a value stored under k; latch-free. When k has
// duplicates, an arbitrary match is returned; use Each for all of them.
func (e *shardEngine[K, V]) Lookup(k K) (V, bool) {
	ss := e.set.Load()
	return ss.shards[ss.shardFor(k)].Lookup(k)
}

// Contains reports whether k is present; latch-free.
func (e *shardEngine[K, V]) Contains(k K) bool {
	_, ok := e.Lookup(k)
	return ok
}

// Each calls fn for every element with key exactly k against the owning
// shard's consistent snapshot; latch-free. Match order is Optimistic's:
// surviving base matches in page order, then pending inserts in insertion
// order.
func (e *shardEngine[K, V]) Each(k K, fn func(v V) bool) {
	ss := e.set.Load()
	ss.shards[ss.shardFor(k)].Each(k, fn)
}

// AscendRange calls fn for elements with lo <= key <= hi in ascending key
// order; latch-free. The scan is an ordered stitch across shard snapshots:
// every intersecting shard's state is captured before the first element is
// emitted, then each shard's range is scanned in fence order. Shards
// partition the key space, so the stitched output is globally ordered; each
// shard's portion is one consistent cut (writes published to a shard after
// its capture are not observed).
func (e *shardEngine[K, V]) AscendRange(lo, hi K, fn func(k K, v V) bool) {
	if hi < lo {
		return
	}
	ss := e.set.Load()
	from, to := upperBoundKeys(ss.bounds, lo), upperBoundKeys(ss.bounds, hi)
	states := make([]*ostate[K, V], to-from+1)
	for i := range states {
		states[i] = ss.shards[from+i].state.Load()
	}
	for _, st := range states {
		stopped := false
		st.ascendRange(lo, hi, func(k K, v V) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// LookupBatch looks up every element of keys, returning values and found
// flags parallel to keys; latch-free. Every shard's state is loaded up
// front, so each shard is read through one snapshot for the whole call;
// the keys then go through the batch kernel as one batch, each routed to
// its own shard's base tree (see Optimistic.LookupBatch).
func (e *shardEngine[K, V]) LookupBatch(keys []K) ([]V, []bool) {
	ss := e.set.Load()
	states := make([]*ostate[K, V], len(ss.shards))
	for i, sh := range ss.shards {
		states[i] = sh.state.Load()
	}
	return lookupBatchStates(ss.bounds, states, keys)
}

// write is the one routed write: it runs op through the owning shard's
// writer section (Optimistic.apply — victim decision, commit-log append
// when durable, publication, group-commit barrier, all under that shard's
// writer mutex and nothing else) and gives the skew check its turn. The
// error is always nil in memory. Panics on a NaN key, before any lock is
// taken.
func (e *shardEngine[K, V]) write(op byte, k K, v V) (bool, error) {
	mustNotBeNaN(op, k)
	e.reshape.RLock()
	ss := e.set.Load()
	ok, err := ss.shards[ss.shardFor(k)].apply(op, k, v)
	e.reshape.RUnlock()
	if ok && err == nil {
		e.maybeRebalance()
	}
	return ok, err
}

// Insert adds (k, v). Only the owning shard's writer mutex is taken, so
// inserts to different shards proceed concurrently. Panics on a NaN key.
func (s *Sharded[K, V]) Insert(k K, v V) { s.write(walOpInsert, k, v) }

// Delete removes one element with key k from the owning shard and reports
// whether one was found; duplicate semantics are Optimistic.Delete's.
// Panics on a NaN key.
func (s *Sharded[K, V]) Delete(k K) bool {
	ok, _ := s.write(walOpDelete, k, *new(V))
	return ok
}

// DeleteValue removes one element with key k whose value equals v under
// Go equality from the owning shard, reporting whether one was removed;
// victim semantics are Optimistic.DeleteValue's (the caller names the
// victim, so the outcome is independent of flush timing). Panics on a NaN
// key and for non-comparable value types.
func (s *Sharded[K, V]) DeleteValue(k K, v V) bool {
	ok, _ := s.write(walOpDeleteValue, k, v)
	return ok
}

// maybeRebalance runs the skew check on one write in shardSkewCheckEvery
// and triggers a boundary rebuild when it reports drift. The rebuild
// re-verifies under the exclusive lock; on a durable store its failure
// poisons the store and surfaces through Err and every later write.
func (e *shardEngine[K, V]) maybeRebalance() {
	if e.writes.Add(1)%shardSkewCheckEvery != 0 {
		return
	}
	if e.needsRebalance(e.set.Load()) {
		_ = e.rebalance(false) // a failed commit poisoned the store; Err reports it
	}
}

// needsRebalance reports whether the shard set has drifted enough to
// warrant a re-partition: the store is under its target shard count, or
// the largest shard exceeds the skew factor times the mean — behind an
// amortization guard that requires the total size to have moved by at
// least a quarter since fences were last computed, so repeated checks
// against an unsplittable distribution (e.g. one giant duplicate run) stay
// cheap, and a pure-update workload, which never moves the total, never
// re-partitions.
func (e *shardEngine[K, V]) needsRebalance(ss *shardSet[K, V]) bool {
	if math.IsInf(e.factor, 1) {
		return false
	}
	total, maxSize := 0, 0
	for _, sh := range ss.shards {
		n := sh.Len()
		total += n
		if n > maxSize {
			maxSize = n
		}
	}
	if total < e.want*minShardElements {
		return false
	}
	if at := int(e.rebalancedAt.Load()); at > 0 && total < at+at/4 && total > at/2 {
		return false
	}
	return len(ss.shards) < e.want || float64(maxSize) > e.factor*float64(total)/float64(len(ss.shards))
}

// quiesce drains every shard's flush pipeline (Optimistic.drain):
// afterwards no background worker is live and every shard's state is its
// clean base tree. The caller keeps writers out or has switched async off.
// Shards drain in parallel.
func (ss *shardSet[K, V]) quiesce() {
	forEachShardParallel(ss.shards, func(_ int, sh *Optimistic[K, V]) { sh.drain() })
}

// rebalance is the one re-partition: quiesce, weigh, fence, cut, commit,
// publish. Writers are excluded for the duration (exclusive reshape lock),
// which drains nothing: past the quiesce it costs O(pages) plus the pages
// a fence cuts through (core.Cut). Readers keep running against the old set,
// which stays a complete, consistent snapshot. Unless forced it re-checks
// the trigger under the lock (another writer may have rebalanced between
// the check and the lock). Commit is the durability backend's step and the
// only one that can fail: the old set then stays published, and the
// backend has poisoned its store (the migration's durable state is
// ambiguous until the next open, which discards it wholesale).
func (e *shardEngine[K, V]) rebalance(force bool) error {
	e.reshape.Lock()
	defer e.reshape.Unlock()
	if e.durable != nil {
		end, err := e.durable.beginRebalance()
		if err != nil {
			return err
		}
		defer end()
	}
	ss := e.set.Load()
	if !force && !e.needsRebalance(ss) {
		return nil
	}
	// Quiesce the outgoing shards' flush pipelines first: background flush
	// workers publish under only the shard mutex, not the reshape lock, so
	// without this drain a worker could outlive its retired shard or
	// publish into it after the states below were read. It folds only
	// pending deltas (page-granular, O(pending) per shard), runs shards in
	// parallel, and leaves the retired set permanently clean for readers
	// still holding it.
	ss.quiesce()
	trees := make([]*Tree[K, V], len(ss.shards))
	total := 0
	for i, sh := range ss.shards {
		trees[i], _ = sh.state.Load().fold()
		total += trees[i].Len()
	}
	bounds := balancedFences(trees, e.want)
	ns := e.shardSetOf(bounds, core.Cut(trees, bounds))
	if e.durable != nil {
		if err := e.durable.commitRebalance(ss, ns); err != nil {
			return err
		}
	}
	e.set.Store(ns)
	e.rebalancedAt.Store(int64(total))
	return nil
}

// collectStates drains the given shard states into one sorted run: each
// state is folded (the fold a flush applies — frozen layers below the
// active one) and its tree read in order. The drains run side by side
// (fanOut): states are immutable and shards partition the key space, so
// EncodeSharded effectively flushes all shards concurrently instead of one
// after another; the runs are then concatenated in fence order, which
// preserves global key order.
func collectStates[K Key, V any](states []*ostate[K, V]) ([]K, []V) {
	type run struct {
		keys []K
		vals []V
	}
	runs := make([]run, len(states))
	total := 0
	fanOut(len(states), func(i int) {
		st := states[i]
		ks := make([]K, 0, st.size)
		vs := make([]V, 0, st.size)
		tree, _ := st.fold()
		tree.Ascend(func(k K, v V) bool {
			ks = append(ks, k)
			vs = append(vs, v)
			return true
		})
		runs[i] = run{keys: ks, vals: vs}
	})
	if len(runs) == 1 {
		return runs[0].keys, runs[0].vals
	}
	for _, r := range runs {
		total += len(r.keys)
	}
	keys := make([]K, 0, total)
	vals := make([]V, 0, total)
	for _, r := range runs {
		keys = append(keys, r.keys...)
		vals = append(vals, r.vals...)
	}
	return keys, vals
}

// snapshotAll captures one coherent cut across every shard: writers are
// excluded only for the O(shards) state loads, then the immutable states
// are readable without any lock. EncodeSharded builds on this.
func (e *shardEngine[K, V]) snapshotAll() []*ostate[K, V] {
	e.reshape.Lock()
	defer e.reshape.Unlock()
	ss := e.set.Load()
	states := make([]*ostate[K, V], len(ss.shards))
	for i, sh := range ss.shards {
		states[i] = sh.state.Load()
	}
	return states
}
