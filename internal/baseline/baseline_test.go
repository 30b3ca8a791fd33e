package baseline

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fitingtree/internal/btree"
	"fitingtree/internal/workload"
)

func TestFullLookup(t *testing.T) {
	keys := workload.Weblogs(20_000, 1)
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	f, err := NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok := f.Lookup(k)
		if !ok || keys[v] != keys[i] {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := f.Lookup(keys[len(keys)-1] + 999); ok {
		t.Fatal("lookup hit for absent key")
	}
	if f.SizeBytes() < int64(f.Len())*16 {
		t.Fatalf("SizeBytes %d below leaf payload", f.SizeBytes())
	}
}

func TestFullDeduplicates(t *testing.T) {
	keys := []uint64{1, 1, 1, 2, 3, 3}
	vals := []int{0, 1, 2, 3, 4, 5}
	f, err := NewFull(keys, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct", f.Len())
	}
	if v, _ := f.Lookup(1); v != 0 {
		t.Fatalf("Lookup(1) = %d, want first value 0", v)
	}
}

func TestFixedLookupAndPages(t *testing.T) {
	keys := workload.IoT(30_000, 2)
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	for _, ps := range []int{10, 100, 1000} {
		f, err := NewFixed(keys, vals, ps, btree.DefaultOrder)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("page=%d: %v", ps, err)
		}
		wantPages := (len(keys) + ps - 1) / ps
		if got := f.Pages(); got != wantPages {
			t.Fatalf("page=%d: %d pages, want %d", ps, got, wantPages)
		}
		for i := 0; i < len(keys); i += 101 {
			v, ok := f.Lookup(keys[i])
			if !ok || keys[v] != keys[i] {
				t.Fatalf("page=%d: Lookup(%d) = %d,%v", ps, keys[i], v, ok)
			}
		}
	}
}

func TestFixedInsertSplit(t *testing.T) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i * 10)
	}
	vals := make([]int, len(keys))
	f, err := NewFixed(keys, vals, 100, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		f.Insert(uint64(rng.Intn(50_000)), -i)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Splits() == 0 {
		t.Fatal("no splits after 10k inserts")
	}
	if f.Len() != 15_000 {
		t.Fatalf("Len = %d, want 15000", f.Len())
	}
	// All original keys findable.
	for _, k := range keys {
		if _, ok := f.Lookup(k); !ok {
			t.Fatalf("Lookup(%d) missed after splits", k)
		}
	}
	// Iteration is sorted and complete.
	n := 0
	var prev uint64
	f.Ascend(func(k uint64, v int) bool {
		if n > 0 && k < prev {
			t.Fatalf("Ascend out of order: %d < %d", k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != 15_000 {
		t.Fatalf("Ascend visited %d", n)
	}
}

func TestFixedDuplicates(t *testing.T) {
	var keys []uint64
	for k := 0; k < 5; k++ {
		for i := 0; i < 450; i++ {
			keys = append(keys, uint64(k*100))
		}
	}
	vals := make([]int, len(keys))
	f, err := NewFixed(keys, vals, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, ok := f.Lookup(uint64(k * 100)); !ok {
			t.Fatalf("Lookup(%d) missed in duplicate data", k*100)
		}
	}
	if _, ok := f.Lookup(50); ok {
		t.Fatal("absent key found")
	}
}

func TestFixedInsertEmptyAndBeforeMin(t *testing.T) {
	f, err := NewFixed([]uint64{}, []int{}, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	f.Insert(100, 1)
	f.Insert(5, 2) // before min
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Lookup(5); !ok || v != 2 {
		t.Fatalf("Lookup(5) = %d,%v", v, ok)
	}
}

func TestFixedRejectsBadInput(t *testing.T) {
	if _, err := NewFixed([]uint64{2, 1}, []int{0, 0}, 10, 8); err == nil {
		t.Fatal("accepted unsorted keys")
	}
	if _, err := NewFixed([]uint64{1}, []int{0, 1}, 10, 8); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := NewFixed([]uint64{1}, []int{0}, 0, 8); err == nil {
		t.Fatal("accepted page size 0")
	}
}

func TestBinarySearch(t *testing.T) {
	keys := []uint64{2, 4, 4, 6, 8}
	vals := []int{0, 1, 2, 3, 4}
	b, err := NewBinarySearch(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Lookup(4); !ok || v != 1 {
		t.Fatalf("Lookup(4) = %d,%v, want first dup", v, ok)
	}
	if _, ok := b.Lookup(5); ok {
		t.Fatal("absent key found")
	}
	if b.SizeBytes() != 0 {
		t.Fatal("binary search should report zero index size")
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestLookupBreakdownFixed(t *testing.T) {
	keys := workload.IoT(10_000, 4)
	vals := make([]int, len(keys))
	f, err := NewFixed(keys, vals, 100, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, treeNs, pageNs := f.LookupBreakdown(keys[500])
	if !ok {
		t.Fatal("breakdown lookup missed")
	}
	if treeNs < 0 || pageNs < 0 {
		t.Fatalf("negative times %d %d", treeNs, pageNs)
	}
}

// Property: Fixed agrees with a reference sorted multiset under random
// insert traffic.
func TestQuickFixedMatchesReference(t *testing.T) {
	f := func(bulkRaw []uint16, ops []uint16) bool {
		bulk := make([]uint64, len(bulkRaw))
		for i, r := range bulkRaw {
			bulk[i] = uint64(r % 1024)
		}
		sort.Slice(bulk, func(i, j int) bool { return bulk[i] < bulk[j] })
		vals := make([]int, len(bulk))
		fx, err := NewFixed(bulk, vals, 16, 8)
		if err != nil {
			return false
		}
		counts := map[uint64]int{}
		for _, k := range bulk {
			counts[k]++
		}
		for _, op := range ops {
			k := uint64(op % 1024)
			if op%2 == 0 {
				fx.Insert(k, 0)
				counts[k]++
			} else if _, ok := fx.Lookup(k); ok != (counts[k] > 0) {
				return false
			}
		}
		return fx.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestYardstickShapePinned pins the structure of the two B+-tree baselines
// every paper figure is measured against: node counts, height and the
// paper's size accounting of NewFull and NewFixed over one fixed dataset,
// after the bulk load and again after a seeded insert stream that splits
// leaves and inner nodes. A change to internal/btree that moves any of
// these numbers has changed the yardstick, not just the code.
func TestYardstickShapePinned(t *testing.T) {
	keys := workload.Weblogs(200_000, 1)
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	full, err := NewFull(keys, vals, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewFixed(keys, vals, 100, btree.DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, wantFull, wantIdx btree.Stats, wantPages, wantSplits int) {
		t.Helper()
		if got := full.Stats(); got != wantFull {
			t.Errorf("%s: Full.Stats() = %+v, want %+v", stage, got, wantFull)
		}
		if got := full.SizeBytes(); got != wantFull.SizeBytes {
			t.Errorf("%s: Full.SizeBytes() = %d, want %d", stage, got, wantFull.SizeBytes)
		}
		if got := fixed.idx.Stats(); got != wantIdx {
			t.Errorf("%s: Fixed index Stats() = %+v, want %+v", stage, got, wantIdx)
		}
		if got := fixed.SizeBytes(); got != wantIdx.SizeBytes {
			t.Errorf("%s: Fixed.SizeBytes() = %d, want %d", stage, got, wantIdx.SizeBytes)
		}
		if got := fixed.Pages(); got != wantPages {
			t.Errorf("%s: Fixed.Pages() = %d, want %d", stage, got, wantPages)
		}
		if got := fixed.Splits(); got != wantSplits {
			t.Errorf("%s: Fixed.Splits() = %d, want %d", stage, got, wantSplits)
		}
	}
	check("bulk load",
		btree.Stats{Len: 200000, Height: 5, InnerNodes: 836, LeafNodes: 12500, SizeBytes: 3406672},
		btree.Stats{Len: 2000, Height: 3, InnerNodes: 9, LeafNodes: 125, SizeBytes: 34056},
		2000, 0)

	rng := rand.New(rand.NewSource(7))
	lo, span := keys[0], keys[len(keys)-1]-keys[0]
	for i := 0; i < 10_000; i++ {
		// Every other insert lands in the first 1/64 of the key range, so
		// the fixed index splits pages (and its inner tree grows) too.
		w := span
		if i%2 == 1 {
			w = span / 64
		}
		k := lo + uint64(rng.Int63n(int64(w)))
		full.Insert(k, -i)
		fixed.Insert(k, -i)
	}
	check("after 10000 inserts",
		btree.Stats{Len: 210000, Height: 5, InnerNodes: 1695, LeafNodes: 16777, SizeBytes: 3641976},
		btree.Stats{Len: 2053, Height: 3, InnerNodes: 10, LeafNodes: 130, SizeBytes: 34992},
		2053, 58)
	if err := fixed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
