package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fitingtree"
	"fitingtree/internal/workload"
)

// ParallelPoint is one measurement of the parallel read-scaling
// experiment: aggregate point-lookup throughput of one facade at one
// reader-goroutine count.
type ParallelPoint struct {
	Facade     string  `json:"facade"` // tree | rwmutex | optimistic
	Goroutines int     `json:"goroutines"`
	OpsPerSec  float64 `json:"ops_per_sec"`  // aggregate lookups per second
	Speedup    float64 `json:"speedup_vs_1"` // vs the same facade at 1 goroutine
}

// aggregateOpsPerSec runs g goroutines hammering lookup over probes for at
// least minDur and returns the combined lookups per second.
func aggregateOpsPerSec(lookup func(uint64) (uint64, bool), probes []uint64, g int, minDur time.Duration) float64 {
	var ops atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			idx := off * 7919 // decorrelate goroutines' probe streams
			n := 0
			for {
				for j := 0; j < 2048; j++ {
					lookup(probes[idx%len(probes)])
					idx++
				}
				n += 2048
				if time.Since(start) >= minDur {
					break
				}
			}
			ops.Add(int64(n))
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed == 0 {
		return 0
	}
	return float64(ops.Load()) / elapsed
}

// ExtParallel is the concurrency extension experiment: aggregate Lookup
// throughput of the RWMutex facade (Concurrent) against the optimistic
// read path (Optimistic) as reader goroutines grow, with the bare
// single-threaded Tree at 1 goroutine as the no-synchronization upper
// bound. The optimistic path takes no lock, so its curve should track the
// available cores; the RWMutex curve flatlines on the shared lock word.
// Note that scaling beyond 1x requires GOMAXPROCS > 1 and free cores.
func ExtParallel(w io.Writer, cfg Config) []ParallelPoint {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(keys))
	probes := Probes(keys, num2(cfg.Probes, 20_000), cfg.Seed+43)

	build := func() *fitingtree.Tree[uint64, uint64] {
		tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
		if err != nil {
			panic(err)
		}
		return tr
	}
	plain := build()
	rw := NewConcurrent(build())
	opt := fitingtree.NewOptimistic(build())

	goroutines := []int{1, 2, 4, 8}
	if cfg.Quick {
		goroutines = []int{1, 2}
	}
	t := NewTable(fmt.Sprintf("Extension: parallel lookup scaling (Weblogs, error=100, GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		"facade", "goroutines", "Mops/s", "speedup")
	var points []ParallelPoint
	measure := func(facade string, lookup func(uint64) (uint64, bool), gs []int) {
		base := 0.0
		for _, g := range gs {
			ops := aggregateOpsPerSec(lookup, probes, g, cfg.MinMeasure)
			if g == 1 {
				base = ops
			}
			sp := 0.0
			if base > 0 {
				sp = ops / base
			}
			points = append(points, ParallelPoint{Facade: facade, Goroutines: g, OpsPerSec: ops, Speedup: sp})
			t.Add(facade, g, ops/1e6, sp)
		}
	}
	measure("tree", plain.Lookup, []int{1})
	measure("rwmutex", rw.Lookup, goroutines)
	measure("optimistic", opt.Lookup, goroutines)
	t.Print(w)
	return points
}
