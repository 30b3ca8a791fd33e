package bench

import (
	"fmt"
	"io"

	"fitingtree"
	"fitingtree/internal/workload"
)

// ShardRecoveryPoint is one measurement of the sharded-durability
// extension experiment: a full OpenDurableSharded — cross-shard manifest
// load, per-shard checkpoint chunks, per-shard WAL tail replay — against
// the shard count, next to the in-memory bulk-load lower bound (which
// assumes the sorted arrays survived the crash; no real recovery has
// them).
type ShardRecoveryPoint struct {
	Shards    int     `json:"shards"`
	N         int     `json:"n"`
	WALTail   int     `json:"wal_tail"`   // records replayed, summed over shards
	RecoverNs float64 `json:"recover_ns"` // mean OpenDurableSharded wall time
	RebuildNs float64 `json:"rebuild_ns"` // mean in-memory BulkLoad wall time (lower bound)
}

// ShardRecoveryReport is the machine-readable envelope for
// ShardRecoveryPoint measurements (written as BENCH_pr9.json by
// cmd/fitbench -json).
type ShardRecoveryReport struct {
	Experiment string               `json:"experiment"`
	N          int                  `json:"n"`
	Seed       int64                `json:"seed"`
	NumCPU     int                  `json:"num_cpu"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Points     []ShardRecoveryPoint `json:"points"`
}

// ExtShardRecovery is the sharded-durability extension experiment: crash
// recovery cost of the sharded facade as the shard count grows, with the
// data and the WAL tail held fixed. The per-shard checkpoint cuts and
// logs partition the same work, so recovery should stay flat (or dip as
// per-shard replay batches shrink) rather than grow with the shard
// count — the cross-shard cut adds one manifest, not S of anything
// expensive. The in-memory rebuild column is the same lower bound the
// single-tree experiment reports (it assumes the sorted arrays survived
// the crash); the claim here is the flat shard-count curve relative to
// it, not beating it.
func ExtShardRecovery(w io.Writer, cfg Config) []ShardRecoveryPoint {
	cfg = cfg.withDefaults()
	n := cfg.N
	tail := 50_000
	shardCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		tail = 10_000
		shardCounts = []int{1, 4}
	}
	if tail >= n {
		tail = n / 10
	}

	keys := workload.Weblogs(n, cfg.Seed)
	vals := positions(len(keys))
	rebuildNs := measureWindow(cfg.MinMeasure, func() {
		if _, err := fitingtree.BulkLoad(keys, vals, recoveryOpts); err != nil {
			panic(err)
		}
	})

	var points []ShardRecoveryPoint
	t := NewTable("Extension: sharded recovery vs shard count (Weblogs, error=8, fixed WAL tail)",
		"shards", "n", "wal tail", "recover ms", "rebuild ms", "rebuild/recover")
	for _, shards := range shardCounts {
		fs, dev, err := recoveryStore(n, tail, shards, cfg.Seed)
		if err != nil {
			panic(err)
		}
		walTail := 0
		recoverNs := measureWindow(cfg.MinMeasure, func() {
			d, err := fitingtree.OpenDurableSharded[uint64, uint64](fs, dev, fitingtree.Options{}, shards)
			if err != nil {
				panic(err)
			}
			d.SetAutoCheckpoint(false)
			if d.Len() != n+tail {
				panic(fmt.Sprintf("recovered %d elements, want %d", d.Len(), n+tail))
			}
			walTail = d.WALRecords()
		})
		points = append(points, ShardRecoveryPoint{
			Shards: shards, N: n, WALTail: walTail,
			RecoverNs: recoverNs, RebuildNs: rebuildNs,
		})
		t.Add(shards, n, walTail,
			fmt.Sprintf("%.1f", recoverNs/1e6),
			fmt.Sprintf("%.1f", rebuildNs/1e6),
			fmt.Sprintf("%.1fx", rebuildNs/recoverNs))
	}
	t.Print(w)
	return points
}
