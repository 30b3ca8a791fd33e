// IoT dashboard example: the workload from the paper's introduction. A
// clustered FITing-Tree indexes 2 million building-sensor event timestamps
// whose day/night periodicity makes the key->position mapping piece-wise
// linear — exactly the structure the index exploits. The example contrasts
// the index footprint across error thresholds and runs typical dashboard
// queries (latest event before t, events in a time window).
package main

import (
	"fmt"
	"log"
	"time"

	"fitingtree"
	"fitingtree/internal/workload"
)

func main() {
	const n = 2_000_000
	keys := workload.IoT(n, 42) // event timestamps in ms over 500 days
	readings := make([]float64, n)
	for i := range readings {
		readings[i] = 20 + float64(i%100)/10 // fake sensor values
	}

	fmt.Println("error-threshold sweep over 2M IoT events:")
	fmt.Printf("%-8s %-10s %-12s %s\n", "error", "segments", "index", "build")
	for _, e := range []int{10, 100, 1_000, 10_000} {
		start := time.Now()
		t, err := fitingtree.BulkLoad(keys, readings, fitingtree.Options{Error: e, BufferSize: -1})
		if err != nil {
			log.Fatal(err)
		}
		st := t.Stats()
		fmt.Printf("%-8d %-10d %-12d %s\n", e, st.Pages, st.IndexSize, time.Since(start).Round(time.Millisecond))
	}

	t, err := fitingtree.BulkLoad(keys, readings, fitingtree.Options{Error: 100, BufferSize: -1})
	if err != nil {
		log.Fatal(err)
	}

	// Dashboard query 1: events in a one-hour window in the middle of the
	// deployment.
	mid := keys[n/2]
	lo, hi := mid, mid+3600_000
	count := 0
	var sum float64
	t.AscendRange(lo, hi, func(k uint64, v float64) bool {
		count++
		sum += v
		return true
	})
	fmt.Printf("\nwindow [%d, %d]: %d events, mean reading %.2f\n", lo, hi, count, sum/float64(max(1, count)))

	// Dashboard query 2: ingest a live burst of events and query again —
	// the buffers and re-segmentation keep the error bound.
	for i := 0; i < 10_000; i++ {
		t.Insert(mid+uint64(i%3600)*1000, 99.9)
	}
	count2 := 0
	t.AscendRange(lo, hi, func(k uint64, v float64) bool { count2++; return true })
	fmt.Printf("after 10k live inserts the same window holds %d events\n", count2)
	fmt.Printf("maintenance: %+v\n", t.Stats().Counters)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
