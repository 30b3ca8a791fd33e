package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"fitingtree"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
	"fitingtree/internal/workload"
)

// RecoveryPoint is one measurement of the durability extension experiment.
// Kind "recover" rows time a full OpenDurable — checkpoint load plus WAL
// tail replay — against the WAL tail length, next to two rebuild
// baselines: RebuildNs is a bulk load handed the sorted key/value arrays
// in memory (a lower bound no crash recovery can actually use, since a
// crash loses that memory), and ReloadNs is the repository's pre-durability
// recovery path — decode the saved index image from storage, which bulk
// rebuilds internally. Kind "checkpoint" rows time one incremental
// checkpoint against the number of chunks the preceding write batch
// dirtied: ChunksWritten must track the batch's spread, not ChunksTotal.
type RecoveryPoint struct {
	Kind          string  `json:"kind"` // recover | checkpoint
	N             int     `json:"n"`
	WALTail       int     `json:"wal_tail"`       // records replayed (recover rows)
	ChunksTotal   int     `json:"chunks_total"`   // chunks in the checkpoint
	ChunksWritten int     `json:"chunks_written"` // dirty chunks serialized (checkpoint rows)
	RecoverNs     float64 `json:"recover_ns"`     // mean OpenDurable wall time
	RebuildNs     float64 `json:"rebuild_ns"`     // mean in-memory BulkLoad wall time (lower bound)
	ReloadNs      float64 `json:"reload_ns"`      // mean decode-saved-image wall time (pre-durability path)
	CheckpointNs  float64 `json:"checkpoint_ns"`  // mean Checkpoint wall time
}

// RecoveryReport is the machine-readable envelope for RecoveryPoint
// measurements (written as BENCH_pr6.json by cmd/fitbench -json).
type RecoveryReport struct {
	Experiment string          `json:"experiment"`
	N          int             `json:"n"`
	Seed       int64           `json:"seed"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Points     []RecoveryPoint `json:"points"`
}

// recoveryOpts is the tree configuration the durability experiment runs
// at. error=8 sits at the fine-grained end of the paper's evaluated range
// (Table 1 sweeps error from tens to thousands): it yields hundreds of
// chunks at n=1M, so the chunk-granular incremental machinery — dirty
// tracking, O(dirty) checkpoints, per-chunk blob reuse — is actually
// exercised. At large error bounds smooth datasets collapse into a
// handful of chunks and every checkpoint degenerates to a full write.
var recoveryOpts = fitingtree.Options{Error: 8}

// recoveryStore builds a durable store holding n Weblogs keys across
// shards partitions: one full checkpoint plus a WAL tail of exactly tail
// un-checkpointed inserts scattered over the whole key range (so every
// shard's log carries a slice of it). The facade is abandoned (not closed)
// so the store stays in the mid-run shape recovery would find after a
// crash.
func recoveryStore(n, tail, shards int, seed int64) (*wal.MemFS, *pager.Disk, error) {
	keys := workload.Weblogs(n, seed)
	vals := positions(len(keys))
	tr, err := fitingtree.BulkLoad(keys, vals, recoveryOpts)
	if err != nil {
		return nil, nil, err
	}
	fs := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := fitingtree.CreateDurableSharded(fs, dev, tr, shards)
	if err != nil {
		return nil, nil, err
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetRebalanceFactor(math.Inf(1)) // keep the checkpointed fences fixed
	d.SetSyncEvery(256)
	maxKey := keys[len(keys)-1]
	rng := rand.New(rand.NewSource(seed + int64(tail)))
	for i := 0; i < tail; i++ {
		if err := d.Insert(uint64(rng.Int63n(int64(maxKey))), uint64(i)); err != nil {
			return nil, nil, err
		}
	}
	if err := d.Sync(); err != nil {
		return nil, nil, err
	}
	return fs, dev, nil
}

// ExtRecovery is the durability extension experiment. The first sweep
// holds the checkpoint fixed and grows the WAL tail: recovery cost should
// read as a near-constant checkpoint-load term plus a per-record replay
// term, sitting well below the reload baseline (decode the saved image —
// the pre-durability recovery path) for short tails and at or below even
// the in-memory rebuild lower bound — the incremental-recovery claim. The
// second sweep holds the data fixed and
// varies how many chunks a write batch touches before checkpointing:
// chunks written (and with them checkpoint time) should track the batch's
// spread while total chunks stay constant — the O(dirty) checkpoint claim.
func ExtRecovery(w io.Writer, cfg Config) []RecoveryPoint {
	cfg = cfg.withDefaults()
	n := cfg.N
	tails := []int{0, 1_000, 10_000, 100_000}
	spreads := []int{1, 8, 64, 512}
	if cfg.Quick {
		tails = []int{0, 1_000, 10_000}
		spreads = []int{1, 8, 64}
	}

	var points []RecoveryPoint

	t := NewTable("Extension: recovery time vs WAL tail (Weblogs, error=8, checkpointed base)",
		"n", "wal tail", "chunks", "recover ms", "rebuild ms", "reload ms", "reload/recover")
	keys := workload.Weblogs(n, cfg.Seed)
	vals := positions(len(keys))
	rebuildNs := measureWindow(cfg.MinMeasure, func() {
		if _, err := fitingtree.BulkLoad(keys, vals, recoveryOpts); err != nil {
			panic(err)
		}
	})
	// The reload baseline is what recovering without the WAL+checkpoint
	// subsystem actually costs: read the saved index image back and bulk
	// rebuild from it (Decode bulk-loads internally). The in-memory
	// rebuild column beside it assumes the sorted arrays survived the
	// crash, which no real recovery can.
	var image bytes.Buffer
	baseTree, err := fitingtree.BulkLoad(keys, vals, recoveryOpts)
	if err != nil {
		panic(err)
	}
	if err := fitingtree.Encode(baseTree, &image); err != nil {
		panic(err)
	}
	reloadNs := measureWindow(cfg.MinMeasure, func() {
		if _, err := fitingtree.Decode[uint64, uint64](bytes.NewReader(image.Bytes())); err != nil {
			panic(err)
		}
	})
	for _, tail := range tails {
		if tail >= n {
			continue
		}
		fs, dev, err := recoveryStore(n, tail, 1, cfg.Seed)
		if err != nil {
			panic(err)
		}
		chunks := 0
		recoverNs := measureWindow(cfg.MinMeasure, func() {
			d, err := fitingtree.OpenDurable[uint64, uint64](fs, dev, fitingtree.Options{})
			if err != nil {
				panic(err)
			}
			d.SetAutoCheckpoint(false)
			if d.Len() != n+tail {
				panic(fmt.Sprintf("recovered %d elements, want %d", d.Len(), n+tail))
			}
			chunks = d.Stats().Chunks
		})
		points = append(points, RecoveryPoint{
			Kind: "recover", N: n, WALTail: tail, ChunksTotal: chunks,
			RecoverNs: recoverNs, RebuildNs: rebuildNs, ReloadNs: reloadNs,
		})
		t.Add(n, tail, chunks,
			fmt.Sprintf("%.1f", recoverNs/1e6),
			fmt.Sprintf("%.1f", rebuildNs/1e6),
			fmt.Sprintf("%.1f", reloadNs/1e6),
			fmt.Sprintf("%.1fx", reloadNs/recoverNs))
	}
	t.Print(w)

	t2 := NewTable("Extension: incremental checkpoint cost vs dirty spread (same base)",
		"n", "batch spread", "chunks total", "chunks written", "checkpoint ms")
	fs, dev, err := recoveryStore(n, 0, 1, cfg.Seed)
	if err != nil {
		panic(err)
	}
	d, err := fitingtree.OpenDurable[uint64, uint64](fs, dev, fitingtree.Options{})
	if err != nil {
		panic(err)
	}
	d.SetAutoCheckpoint(false)
	maxKey := keys[len(keys)-1]
	for _, spread := range spreads {
		iters := 0
		written := 0
		total := 0
		var ckptNs int64
		start := time.Now()
		for time.Since(start) < cfg.MinMeasure || iters == 0 {
			// One batch of `spread` keys spaced across the key range dirties
			// about `spread` distinct chunks (fewer once spread approaches
			// the chunk count).
			for i := 0; i < spread; i++ {
				k := uint64(i+1) * (maxKey / uint64(spread+1))
				if err := d.Insert(k, uint64(i)); err != nil {
					panic(err)
				}
			}
			d.SyncFlush()
			t0 := time.Now()
			stats, err := d.Checkpoint()
			if err != nil {
				panic(err)
			}
			ckptNs += time.Since(t0).Nanoseconds()
			written += stats.ChunksWritten
			total = stats.ChunksWritten + stats.ChunksReused
			iters++
		}
		perOp := float64(ckptNs) / float64(iters)
		points = append(points, RecoveryPoint{
			Kind: "checkpoint", N: n, ChunksTotal: total,
			ChunksWritten: written / iters, CheckpointNs: perOp,
		})
		t2.Add(n, spread, total, written/iters, fmt.Sprintf("%.1f", perOp/1e6))
	}
	t2.Print(w)
	return points
}

// measureWindow runs fn repeatedly for at least window (and at least once),
// returning the mean wall time per run in nanoseconds.
func measureWindow(window time.Duration, fn func()) float64 {
	iters := 0
	start := time.Now()
	for time.Since(start) < window || iters == 0 {
		fn()
		iters++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}
