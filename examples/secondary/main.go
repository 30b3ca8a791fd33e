// Secondary-index example: a non-clustered FITing-Tree over the longitude
// attribute of an unsorted heap table of map features (the paper's Maps
// dataset scenario, Figure 3). The index stores sorted (key, row id)
// postings subject to the error-bounded segmentation; queries fetch rows
// from the heap table through the returned row ids.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"fitingtree"
	"fitingtree/internal/workload"
)

// feature is one row of the heap table.
type feature struct {
	name string
	lon  float64
	lat  float64
}

func main() {
	const n = 500_000
	// Build an unsorted heap table: longitudes come from a continent-
	// clustered distribution, rows arrive in arbitrary order.
	lons := workload.MapsLongitude(n, 7)
	rng := rand.New(rand.NewSource(8))
	rng.Shuffle(len(lons), func(i, j int) { lons[i], lons[j] = lons[j], lons[i] })
	table := make([]feature, n)
	column := make([]float64, n)
	for i := range table {
		table[i] = feature{
			name: fmt.Sprintf("feature-%d", i),
			lon:  lons[i],
			lat:  -90 + 180*rng.Float64(),
		}
		column[i] = table[i].lon
	}

	idx, err := fitingtree.BuildSecondary(column, fitingtree.Options{Error: 100, BufferSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	st := idx.Stats()
	fmt.Printf("secondary index over %d rows: %d segments, %d bytes\n",
		idx.Len(), st.Pages, st.IndexSize)

	// Query: everything in a 2-degree band around Greenwich.
	count := 0
	var sample []string
	idx.RangeRows(-1.0, 1.0, func(lon float64, row int) bool {
		count++
		if len(sample) < 3 {
			sample = append(sample, fmt.Sprintf("%s@%.3f", table[row].name, table[row].lon))
		}
		return true
	})
	fmt.Printf("features with lon in [-1, 1]: %d (e.g. %v)\n", count, sample)

	// Exact-match query with duplicates: all rows at one longitude.
	probe := column[123]
	rows := idx.Rows(probe)
	fmt.Printf("rows at lon=%.6f: %d\n", probe, len(rows))
	for _, r := range rows {
		if table[r].lon != probe {
			log.Fatalf("index returned wrong row %d", r)
		}
	}

	// Appending a row updates the index incrementally.
	table = append(table, feature{name: "new-cafe", lon: 0.5, lat: 51.5})
	idx.Insert(0.5, len(table)-1)
	found := false
	for _, r := range idx.Rows(0.5) {
		if table[r].name == "new-cafe" {
			found = true
		}
	}
	fmt.Printf("new row indexed: %v\n", found)

	// Deleting a specific posting. Delete names the exact (key, row)
	// pair, so among duplicate keys no other row's posting can be the
	// victim.
	if !idx.Delete(0.5, len(table)-1) {
		log.Fatal("delete of posting failed")
	}
	fmt.Println("posting deleted")

	// Maintenance under concurrent writes: the same index API over a
	// Sharded backend takes posting updates from many goroutines while
	// readers scan. NewSecondary accepts any backend satisfying
	// fitingtree.Index — plain Tree, Optimistic, or Sharded.
	empty, err := fitingtree.BulkLoad[float64, int](nil, nil, fitingtree.Options{Error: 100})
	if err != nil {
		log.Fatal(err)
	}
	shards, err := fitingtree.NewSharded(empty, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer shards.Close()
	live := fitingtree.NewSecondary[float64, int](shards)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				live.Insert(column[i], i)
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("concurrently built index: %d postings, %d rows at lon=%.6f\n",
		live.Len(), len(live.Rows(probe)), probe)
}
