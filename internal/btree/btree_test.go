package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New[uint64, int](DefaultOrder)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d, want 1", tr.Height())
	}
	if _, ok := tr.Get(42); ok {
		t.Fatal("Get on empty tree reported a hit")
	}
	if _, _, ok := tr.Floor(42); ok {
		t.Fatal("Floor on empty tree reported a hit")
	}
	if tr.Delete(7) {
		t.Fatal("Delete on empty tree reported success")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr := New[uint64, uint64](4) // tiny order to force many splits
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		if tr.Insert(i, i*2) {
			t.Fatalf("Insert(%d) reported replacement on fresh key", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tr.Get(i)
		if !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", i, v, ok, i*2)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New[int, string](DefaultOrder)
	tr.Insert(1, "a")
	if !tr.Insert(1, "b") {
		t.Fatal("replacing insert did not report replacement")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	v, _ := tr.Get(1)
	if v != "b" {
		t.Fatalf("Get(1) = %q, want b", v)
	}
}

func TestInsertRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int64, int](5)
	ref := map[int64]int{}
	for i := 0; i < 20_000; i++ {
		k := int64(rng.Intn(5000)) // force many duplicates/replacements
		ref[k] = i
		tr.Insert(k, i)
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", k, got, ok, v)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFloorCeil(t *testing.T) {
	tr := New[int, int](4)
	for _, k := range []int{10, 20, 30, 40, 50} {
		tr.Insert(k, k)
	}
	cases := []struct {
		q       int
		floor   int
		floorOK bool
	}{
		{5, 0, false},
		{10, 10, true},
		{15, 10, true},
		{30, 30, true},
		{55, 50, true},
		{50, 50, true},
		{49, 40, true},
	}
	for _, c := range cases {
		fk, _, ok := tr.Floor(c.q)
		if ok != c.floorOK || (ok && fk != c.floor) {
			t.Errorf("Floor(%d) = %d,%v, want %d,%v", c.q, fk, ok, c.floor, c.floorOK)
		}
	}
}

func TestFloorAcrossLeafBoundaries(t *testing.T) {
	// With order 3 the leaves are tiny, so floor queries constantly cross
	// leaf boundaries via the prev pointer.
	tr := New[int, int](3)
	for k := 0; k < 1000; k += 10 {
		tr.Insert(k, k)
	}
	for q := 0; q < 1010; q++ {
		fk, _, ok := tr.Floor(q)
		want := (q / 10) * 10
		if q >= 1000 {
			want = 990
		}
		if !ok || fk != want {
			t.Fatalf("Floor(%d) = %d,%v, want %d,true", q, fk, ok, want)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	for _, order := range []int{3, 4, 5, 16} {
		tr := New[int, int](order)
		const n = 3000
		perm := rand.New(rand.NewSource(7)).Perm(n)
		for _, k := range perm {
			tr.Insert(k, k)
		}
		perm2 := rand.New(rand.NewSource(8)).Perm(n)
		for i, k := range perm2 {
			if !tr.Delete(k) {
				t.Fatalf("order %d: Delete(%d) missed", order, k)
			}
			if tr.Delete(k) {
				t.Fatalf("order %d: double Delete(%d) succeeded", order, k)
			}
			if i%500 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("order %d after %d deletes: %v", order, i+1, err)
				}
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("order %d: Len = %d after deleting everything", order, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeleteNonExistent(t *testing.T) {
	tr := New[int, int](4)
	for k := 0; k < 100; k += 2 {
		tr.Insert(k, k)
	}
	for k := 1; k < 100; k += 2 {
		if tr.Delete(k) {
			t.Fatalf("Delete(%d) succeeded for absent key", k)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tr.Len())
	}
}

func TestAscend(t *testing.T) {
	tr := New[int, int](4)
	want := []int{}
	for k := 99; k >= 0; k-- {
		tr.Insert(k, -k)
	}
	for k := 0; k < 100; k++ {
		want = append(want, k)
	}
	var got []int
	tr.AscendRange(math.MinInt, math.MaxInt, func(k, v int) bool {
		if v != -k {
			t.Fatalf("Ascend saw value %d for key %d", v, k)
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Ascend visited %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New[int, int](4)
	for k := 0; k < 100; k++ {
		tr.Insert(k, k)
	}
	n := 0
	tr.AscendRange(math.MinInt, math.MaxInt, func(k, v int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Ascend visited %d keys after early stop, want 10", n)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int, int](4)
	for k := 0; k < 200; k += 2 {
		tr.Insert(k, k)
	}
	var got []int
	tr.AscendRange(51, 99, func(k, v int) bool {
		got = append(got, k)
		return true
	})
	var want []int
	for k := 52; k <= 98; k += 2 {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("AscendRange returned %d keys, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Empty and inverted ranges.
	count := 0
	tr.AscendRange(301, 400, func(k, v int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("range beyond max visited %d keys", count)
	}
	tr.AscendRange(99, 51, func(k, v int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("inverted range visited %d keys", count)
	}
}

func TestBulkLoad(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 1000, 12345} {
		keys := make([]uint64, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = uint64(i * 3)
			vals[i] = i
		}
		tr := New[uint64, int](16)
		if err := tr.BulkLoad(keys, vals, 0.75); err != nil {
			t.Fatalf("n=%d: BulkLoad: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range keys {
			v, ok := tr.Get(keys[i])
			if !ok || v != vals[i] {
				t.Fatalf("n=%d: Get(%d) = %d,%v", n, keys[i], v, ok)
			}
		}
		// Floor on mid-gap probes.
		for i := 0; i < n; i++ {
			fk, fv, ok := tr.Floor(uint64(i*3 + 1))
			if !ok || fk != uint64(i*3) || fv != i {
				t.Fatalf("n=%d: Floor(%d) = %d,%d,%v", n, i*3+1, fk, fv, ok)
			}
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	tr := New[int, int](8)
	if err := tr.BulkLoad([]int{1, 3, 2}, []int{0, 0, 0}, 1); err == nil {
		t.Fatal("BulkLoad accepted unsorted keys")
	}
	if err := tr.BulkLoad([]int{1, 1}, []int{0, 0}, 1); err == nil {
		t.Fatal("BulkLoad accepted duplicate keys")
	}
	if err := tr.BulkLoad([]int{1, 2}, []int{0}, 1); err == nil {
		t.Fatal("BulkLoad accepted mismatched lengths")
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	keys := make([]int, 5000)
	vals := make([]int, 5000)
	for i := range keys {
		keys[i] = i * 2
		vals[i] = i
	}
	tr := New[int, int](8)
	if err := tr.BulkLoad(keys, vals, 0.5); err != nil {
		t.Fatal(err)
	}
	// Insert the odd keys, delete half the even ones.
	for i := 1; i < 10000; i += 2 {
		tr.Insert(i, -i)
	}
	for i := 0; i < 10000; i += 4 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		v, ok := tr.Get(i)
		switch {
		case i%2 == 1:
			if !ok || v != -i {
				t.Fatalf("Get(%d) = %d,%v, want %d", i, v, ok, -i)
			}
		case i%4 == 0:
			if ok {
				t.Fatalf("Get(%d) found deleted key", i)
			}
		default:
			if !ok || v != i/2 {
				t.Fatalf("Get(%d) = %d,%v, want %d", i, v, ok, i/2)
			}
		}
	}
}

func TestStats(t *testing.T) {
	tr := New[uint64, uint64](16)
	for i := uint64(0); i < 10_000; i++ {
		tr.Insert(i, i)
	}
	s := tr.Stats()
	if s.Len != 10_000 {
		t.Fatalf("Stats.Len = %d", s.Len)
	}
	if s.LeafNodes == 0 || s.InnerNodes == 0 {
		t.Fatalf("Stats nodes = %+v", s)
	}
	if s.Height != tr.Height() {
		t.Fatalf("Stats.Height = %d, tree Height = %d", s.Height, tr.Height())
	}
	// Leaves alone hold 16 bytes per entry.
	if s.SizeBytes < 10_000*16 {
		t.Fatalf("SizeBytes = %d, want >= %d", s.SizeBytes, 10_000*16)
	}
	// Sanity: the whole index should be within 3x the leaf payload.
	if s.SizeBytes > 3*10_000*16 {
		t.Fatalf("SizeBytes = %d, implausibly large", s.SizeBytes)
	}
}

func TestFloatKeys(t *testing.T) {
	tr := New[float64, int](6)
	keys := []float64{-180.0, -77.5, -0.25, 0, 13.37, 90.001, 179.9}
	for i, k := range keys {
		tr.Insert(k, i)
	}
	for i, k := range keys {
		v, ok := tr.Get(k)
		if !ok || v != i {
			t.Fatalf("Get(%v) = %d,%v", k, v, ok)
		}
	}
	fk, _, ok := tr.Floor(1.0)
	if !ok || fk != 0 {
		t.Fatalf("Floor(1.0) = %v,%v", fk, ok)
	}
}

func TestMinOrderClamp(t *testing.T) {
	tr := New[int, int](1)
	if tr.order < 3 {
		t.Fatalf("order %d below minimum", tr.order)
	}
	for i := 0; i < 100; i++ {
		tr.Insert(i, i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// quickCheck config shared by property tests.
var quickCfg = &quick.Config{MaxCount: 60}

// TestQuickInsertDeleteMatchesMap drives the tree with random operation
// sequences and compares against a reference map plus sorted-slice ordering.
func TestQuickInsertDeleteMatchesMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(14)
		tr := New[uint16, int](order)
		ref := map[uint16]int{}
		for i, op := range opsRaw {
			k := op % 512
			switch op % 3 {
			case 0, 1:
				tr.Insert(k, i)
				ref[k] = i
			case 2:
				_, inRef := ref[k]
				if tr.Delete(k) != inRef {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		// Ordered iteration must match the sorted reference keys.
		want := make([]int, 0, len(ref))
		for k := range ref {
			want = append(want, int(k))
		}
		sort.Ints(want)
		i := 0
		okIter := true
		tr.AscendRange(0, math.MaxUint16, func(k uint16, v int) bool {
			if i >= len(want) || int(k) != want[i] {
				okIter = false
				return false
			}
			i++
			return true
		})
		return okIter && i == len(want)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFloorMatchesLinearScan compares Floor against a brute-force scan.
func TestQuickFloorMatchesLinearScan(t *testing.T) {
	f := func(keysRaw []uint16, probes []uint16) bool {
		tr := New[uint16, bool](4)
		present := map[uint16]bool{}
		for _, k := range keysRaw {
			tr.Insert(k, true)
			present[k] = true
		}
		sorted := make([]int, 0, len(present))
		for k := range present {
			sorted = append(sorted, int(k))
		}
		sort.Ints(sorted)
		for _, q := range probes {
			i := sort.SearchInts(sorted, int(q)+1) - 1
			fk, _, ok := tr.Floor(q)
			if i < 0 {
				if ok {
					return false
				}
			} else if !ok || int(fk) != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := New[uint64, uint64](DefaultOrder)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[uint64, uint64](DefaultOrder)
	const n = 1 << 20
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, i)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(rng.Intn(n)))
	}
}
