package fitingtree_test

import (
	"math/rand"
	"testing"

	"fitingtree"
	"fitingtree/internal/baseline"
	"fitingtree/internal/btree"
	"fitingtree/internal/workload"
)

// TestLookupAgreementAcrossApproaches builds all four competitors of the
// evaluation over the same data and checks they answer identically on a
// mixed hit/miss probe stream — the correctness backbone behind every
// latency figure.
func TestLookupAgreementAcrossApproaches(t *testing.T) {
	keys := workload.Weblogs(80_000, 51)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	ft, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := baseline.NewFixed(keys, vals, 100, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	fu, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := baseline.NewBinarySearch(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	maxKey := keys[len(keys)-1]
	for i := 0; i < 100_000; i++ {
		var k uint64
		if i%2 == 0 {
			k = keys[rng.Intn(len(keys))]
		} else {
			k = uint64(rng.Int63n(int64(maxKey + 1000)))
		}
		_, a := ft.Lookup(k)
		_, b := fx.Lookup(k)
		_, c := fu.Lookup(k)
		_, d := bs.Lookup(k)
		if a != b || a != c || a != d {
			t.Fatalf("approaches disagree on %d: fiting=%v fixed=%v full=%v binary=%v", k, a, b, c, d)
		}
	}
}

// TestIndexSizeOrdering is Figure 6's space story as an invariant: for
// realistic data the FITing index is smaller than fixed paging at the same
// parameter, and both are far below the dense index.
func TestIndexSizeOrdering(t *testing.T) {
	keys := workload.IoT(200_000, 53)
	vals := make([]uint64, len(keys))
	fu, err := baseline.NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{100, 1000} {
		ft, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: e, BufferSize: 0})
		if err != nil {
			t.Fatal(err)
		}
		fx, err := baseline.NewFixed(keys, vals, e, btree.DefaultOrder)
		if err != nil {
			t.Fatal(err)
		}
		ftSize := ft.Stats().IndexSize
		if ftSize >= fx.SizeBytes() {
			t.Fatalf("e=%d: FITing %d not below Fixed %d", e, ftSize, fx.SizeBytes())
		}
		if ftSize*10 >= fu.SizeBytes() {
			t.Fatalf("e=%d: FITing %d not at least 10x below Full %d", e, ftSize, fu.SizeBytes())
		}
	}
}

// TestErrorBoundEndToEnd drives the public API through a bulk load plus a
// heavy mixed workload and verifies the invariants (including the paper's
// error bound) still hold.
func TestErrorBoundEndToEnd(t *testing.T) {
	base := workload.IoT(20_000, 54)
	vals := make([]uint64, len(base))
	tr, err := fitingtree.BulkLoad(base, vals, fitingtree.Options{Error: 30, BufferSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	maxKey := base[len(base)-1]
	for i := 0; i < 10_000; i++ {
		k := uint64(rng.Int63n(int64(maxKey)))
		switch i % 3 {
		case 0:
			tr.Insert(k, uint64(i))
		case 1:
			tr.Delete(k)
		default:
			tr.Lookup(k)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSecondaryAgreesWithTableScan cross-checks the non-clustered index
// against brute force on a shuffled heap column.
func TestSecondaryAgreesWithTableScan(t *testing.T) {
	column := workload.TaxiDropLat(30_000, 56)
	rng := rand.New(rand.NewSource(57))
	rng.Shuffle(len(column), func(i, j int) { column[i], column[j] = column[j], column[i] })
	idx, err := fitingtree.BuildSecondary(column, fitingtree.Options{Error: 64})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := 40.5 + rng.Float64()*0.4
		hi := lo + rng.Float64()*0.05
		want := 0
		for _, v := range column {
			if v >= lo && v <= hi {
				want++
			}
		}
		got := 0
		idx.RangeRows(lo, hi, func(k float64, row int) bool {
			if column[row] != k {
				t.Fatalf("posting mismatch: row %d holds %f, key %f", row, column[row], k)
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("range [%f,%f]: got %d postings, want %d", lo, hi, got, want)
		}
	}
}
