package fitingtree

// Test-only settings. The library derives the flush threshold from the base
// tree and rebalances at a fixed skew factor; tests that count folds,
// freezes or rebalances pin these values so their fold points are exact.

// SetFlushEvery pins the number of pending writes that trips a delta flush
// to n, and with it the backpressure and compaction bounds
// (backpressureFactor × n). It is atomic, so a test may re-pin a live
// facade; the new value applies from the next write. It is promoted to
// Optimistic and, through the engine's settings value, to Sharded and
// DurableSharded, where it reaches every shard, current and future.
func (fs *flushSettings) SetFlushEvery(n int) { fs.flushAt.Store(int64(n)) }

// SetRebalanceFactor sets the skew factor at which a sharded store
// re-partitions: once the largest shard exceeds factor times the mean
// shard size. +Inf disables size-triggered rebalancing. The factor is read
// by writers, so a test sets it before it writes.
func (e *shardEngine[K, V]) SetRebalanceFactor(factor float64) { e.factor = factor }
