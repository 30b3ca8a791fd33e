package core

import (
	"math/rand"
	"testing"
)

func TestPageBoundsSumToLen(t *testing.T) {
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	tr, err := BulkLoad(keys, keys, Options{Error: 32, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Buffered inserts must count into the weights too.
	for i := 0; i < 500; i++ {
		tr.Insert(uint64(i*140+1), 0)
	}
	starts, weights := tr.PageBounds()
	if len(starts) != len(weights) {
		t.Fatalf("starts %d != weights %d", len(starts), len(weights))
	}
	total := 0
	for i, w := range weights {
		if w <= 0 {
			t.Fatalf("page %d has weight %d", i, w)
		}
		if i > 0 && starts[i] < starts[i-1] {
			t.Fatalf("starts out of order at %d", i)
		}
		total += w
	}
	if total != tr.Len() {
		t.Fatalf("weights sum to %d, Len is %d", total, tr.Len())
	}
}

func TestPartitionByWeightBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	starts := make([]uint64, 400)
	weights := make([]int, 400)
	k := uint64(0)
	total := 0
	for i := range starts {
		k += uint64(rng.Intn(1000) + 1)
		starts[i] = k
		weights[i] = rng.Intn(120) + 10
		total += weights[i]
	}
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		fences := PartitionByWeight(starts, weights, n)
		if n == 1 {
			if fences != nil {
				t.Fatalf("n=1 yields fences %v", fences)
			}
			continue
		}
		if len(fences) != n-1 {
			t.Fatalf("n=%d: got %d fences", n, len(fences))
		}
		for i := 1; i < len(fences); i++ {
			if fences[i] <= fences[i-1] {
				t.Fatalf("n=%d: fences not strictly increasing: %v", n, fences)
			}
		}
		// Every range's weight stays within one max-candidate of the even
		// share (the documented greedy bound).
		maxW := 0
		for _, w := range weights {
			if w > maxW {
				maxW = w
			}
		}
		share := total / n
		fi := 0
		acc := 0
		for i := range starts {
			if fi < len(fences) && starts[i] >= fences[fi] {
				if acc > share+maxW {
					t.Fatalf("n=%d: range %d holds %d, share %d, max candidate %d", n, fi, acc, share, maxW)
				}
				acc = 0
				fi++
			}
			acc += weights[i]
		}
	}
}

func TestPartitionByWeightDuplicateRuns(t *testing.T) {
	// A long run of equal starts must never be cut mid-run.
	starts := []uint64{5, 9, 9, 9, 9, 9, 9, 14}
	weights := []int{10, 10, 10, 10, 10, 10, 10, 10}
	fences := PartitionByWeight(starts, weights, 4)
	for i := 1; i < len(fences); i++ {
		if fences[i] <= fences[i-1] {
			t.Fatalf("fences not strictly increasing: %v", fences)
		}
	}
	// Only two distinct step-up points exist (9 and 14), so at most two
	// fences can be produced no matter how many ranges were asked for.
	if len(fences) > 2 {
		t.Fatalf("got %d fences from 2 cut points: %v", len(fences), fences)
	}
	for _, f := range fences {
		if f != 9 && f != 14 {
			t.Fatalf("fence %d is not a candidate start", f)
		}
	}

	if got := PartitionByWeight([]uint64{1}, []int{5}, 4); got != nil {
		t.Fatalf("single candidate yields fences %v", got)
	}
	if got := PartitionByWeight([]uint64{1, 2}, []int{0, 0}, 2); got != nil {
		t.Fatalf("zero total weight yields fences %v", got)
	}
}
