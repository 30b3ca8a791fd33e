// Tuning example: use the Section 6 cost model to derive the error
// threshold from service requirements instead of guessing. One index is
// tuned for a lookup-latency SLA, another for a storage budget, and both
// predictions are validated against the built index.
package main

import (
	"fmt"
	"log"
	"time"

	"fitingtree"
	"fitingtree/internal/workload"
)

func main() {
	const n = 1_000_000
	keys := workload.Weblogs(n, 3) // 14 years of request timestamps
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	candidates := []int{10, 100, 1_000, 10_000, 100_000}

	// Case 1: an interactive application demands low-latency lookups. The
	// feasible SLA depends on the host's measured random-access cost, so
	// try a ladder from ambitious to lenient and keep the tightest that
	// the model can satisfy.
	var res fitingtree.TuneResult
	var sla float64
	var err error
	for _, sla = range []float64{1_000, 2_000, 5_000, 20_000} {
		res, err = fitingtree.Tune(keys, fitingtree.TuneRequest{
			MaxLatencyNs: sla,
			Candidates:   candidates,
		})
		if err == nil {
			break
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("latency SLA %.0fns -> error=%d (predicted %.0fns, %d bytes; c=%.1fns measured)\n",
		sla, res.Error, res.PredictedLatencyNs, res.PredictedSizeBytes, res.CacheMissNs)
	t1, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: res.Error, BufferSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  built: %d segments, %d bytes, measured lookup %s\n",
		t1.Stats().Pages, t1.Stats().IndexSize, measure(t1, keys))

	// Case 2: the index must fit in 256 KiB.
	res2, err := fitingtree.Tune(keys, fitingtree.TuneRequest{
		MaxIndexBytes: 256 << 10,
		Candidates:    candidates,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("space budget 256KiB -> error=%d (predicted %.0fns, %d bytes)\n",
		res2.Error, res2.PredictedLatencyNs, res2.PredictedSizeBytes)
	t2, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: res2.Error, BufferSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	actual := t2.Stats().IndexSize
	fmt.Printf("  built: %d bytes actual (fits: %v), measured lookup %s\n",
		actual, actual <= 256<<10, measure(t2, keys))
}

// measure times 100k random hits.
func measure(t *fitingtree.Tree[uint64, uint64], keys []uint64) time.Duration {
	const probes = 100_000
	start := time.Now()
	for i := 0; i < probes; i++ {
		t.Lookup(keys[(i*7919)%len(keys)])
	}
	return time.Since(start) / probes
}
