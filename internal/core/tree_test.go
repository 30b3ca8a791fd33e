package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"fitingtree/internal/segment"
	"fitingtree/internal/workload"
)

// load builds a tree over keys with position values and fails the test on
// error.
func load(t *testing.T, keys []uint64, opts Options) *Tree[uint64, int] {
	t.Helper()
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	tr, err := BulkLoad(keys, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := load(t, nil, Options{})
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Lookup(5); ok {
		t.Fatal("lookup hit on empty tree")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min hit on empty tree")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max hit on empty tree")
	}
	if tr.Delete(5) {
		t.Fatal("delete hit on empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Insert into an empty tree must bootstrap a page.
	tr.Insert(42, 1)
	if v, ok := tr.Lookup(42); !ok || v != 1 {
		t.Fatalf("Lookup(42) = %d,%v", v, ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsBadInput(t *testing.T) {
	if _, err := BulkLoad([]uint64{3, 1}, []int{0, 0}, Options{}); err == nil {
		t.Fatal("accepted unsorted keys")
	}
	if _, err := BulkLoad([]uint64{1, 2}, []int{0}, Options{}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := BulkLoad([]uint64{1}, []int{0}, Options{Error: -1}); err == nil {
		t.Fatal("accepted negative error")
	}
	if _, err := BulkLoad([]uint64{1}, []int{0}, Options{Error: 10, BufferSize: 10}); err == nil {
		t.Fatal("accepted BufferSize >= Error")
	}
	// On an input a parallel load splits, the errors still name the first
	// offending index.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	keys := make([]float64, 300_000)
	for i := range keys {
		keys[i] = float64(i)
	}
	keys[250_001] = math.NaN()
	keys[200_000], keys[150_000] = 0, 0
	vals := make([]int, len(keys))
	if _, err := BulkLoad(keys, vals, Options{}); err == nil || err.Error() != "fitingtree: keys not sorted at index 150000" {
		t.Fatalf("unsorted at 150000 and 200000: %v", err)
	}
	keys[150_000], keys[200_000] = 150_000, 200_000
	keys[100_000] = math.NaN()
	if _, err := BulkLoad(keys, vals, Options{}); err == nil || err.Error() != "fitingtree: NaN key at index 100000" {
		t.Fatalf("NaN at 100000 and 250001: %v", err)
	}
}

// TestBulkLoadLayoutIndependentOfProcs pins a bulk load's layout to the
// serial build's: at GOMAXPROCS 1 and 4 the same chunks with the same pages,
// and page identities consecutive in chain order.
func TestBulkLoadLayoutIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys := workload.Weblogs(300_000, 9)
	var snaps [][]ChunkSnap[uint64, int]
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if p := segment.Parts(len(keys)); p != procs {
			t.Fatalf("GOMAXPROCS %d: %d parts", procs, p)
		}
		tr := load(t, keys, Options{})
		var cs []ChunkSnap[uint64, int]
		for i := range tr.NumChunks() {
			cs = append(cs, tr.ChunkSnap(i))
		}
		snaps = append(snaps, cs)
		ids := tr.PageIDs()
		for i, id := range ids {
			if id != ids[0]+uint64(i) {
				t.Fatalf("GOMAXPROCS %d: page %d has id %d, page 0 %d", procs, i, id, ids[0])
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatal("the chunks at GOMAXPROCS 4 differ from the serial build's")
	}
}

func TestLookupAllKeysAfterBulkLoad(t *testing.T) {
	keys := workload.IoT(50_000, 1)
	for _, e := range []int{10, 100, 1000} {
		tr := load(t, keys, Options{Error: e})
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("err=%d: %v", e, err)
		}
		for i, k := range keys {
			v, ok := tr.Lookup(k)
			if !ok {
				t.Fatalf("err=%d: Lookup(%d) missed (index %d)", e, k, i)
			}
			// Values map back to a position holding the same key
			// (duplicates may return any of their positions).
			if keys[v] != k {
				t.Fatalf("err=%d: Lookup(%d) returned value %d which holds key %d", e, k, v, keys[v])
			}
		}
	}
}

func TestLookupAbsentKeys(t *testing.T) {
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i)*10 + 5 // keys 5, 15, 25, ...
	}
	tr := load(t, keys, Options{Error: 50})
	for i := 0; i < 10_000; i++ {
		probe := uint64(i) * 10 // between stored keys
		if _, ok := tr.Lookup(probe); ok {
			t.Fatalf("Lookup(%d) found a key that was never stored", probe)
		}
	}
	if _, ok := tr.Lookup(1 << 60); ok {
		t.Fatal("lookup above max hit")
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	// Long duplicate runs crossing page boundaries (the non-clustered
	// index case).
	var keys []uint64
	for k := 0; k < 20; k++ {
		run := 500 + (k%3)*700
		for i := 0; i < run; i++ {
			keys = append(keys, uint64(k*1000))
		}
	}
	tr := load(t, keys, Options{Error: 40})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		key := uint64(k * 1000)
		want := 500 + (k%3)*700
		got := 0
		tr.Each(key, func(v int) bool { got++; return true })
		if got != want {
			t.Fatalf("Each(%d) visited %d values, want %d", key, got, want)
		}
		if _, ok := tr.Lookup(key); !ok {
			t.Fatalf("Lookup(%d) missed", key)
		}
	}
	if _, ok := tr.Lookup(500); ok {
		t.Fatal("lookup of absent key hit")
	}
}

func TestEachEarlyStop(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = 7
	}
	tr := load(t, keys, Options{Error: 10})
	n := 0
	tr.Each(7, func(v int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Each visited %d after early stop, want 5", n)
	}
}

func TestInsertIntoBulkLoaded(t *testing.T) {
	keys := make([]uint64, 20_000)
	for i := range keys {
		keys[i] = uint64(i * 4)
	}
	tr := load(t, keys, Options{Error: 64})
	rng := rand.New(rand.NewSource(2))
	inserted := map[uint64]int{}
	for i := 0; i < 20_000; i++ {
		k := uint64(rng.Intn(80_000))
		if k%4 == 0 {
			k++ // avoid colliding with bulk keys to keep the check simple
		}
		inserted[k] = -i
		tr.Insert(k, -i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every original key still findable.
	for i, k := range keys {
		v, ok := tr.Lookup(k)
		if !ok || keys[v] != keys[i] {
			t.Fatalf("Lookup(%d) = %d,%v after inserts", k, v, ok)
		}
	}
	// Inserted keys findable with one of their values (duplicates possible
	// from repeated rng keys; Lookup may return any).
	for k := range inserted {
		if _, ok := tr.Lookup(k); !ok {
			t.Fatalf("Lookup(%d) missed inserted key", k)
		}
	}
	if tr.Counters().Merges == 0 {
		t.Fatal("no merges happened despite 20k inserts")
	}
}

func TestInsertBeforeMin(t *testing.T) {
	keys := []uint64{1000, 1010, 1020, 1030, 1040, 1050}
	tr := load(t, keys, Options{Error: 4, BufferSize: 2})
	for k := uint64(0); k < 20; k++ {
		tr.Insert(k, int(k))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 20; k++ {
		if v, ok := tr.Lookup(k); !ok || v != int(k) {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	mk, _, _ := tr.Min()
	if mk != 0 {
		t.Fatalf("Min = %d, want 0", mk)
	}
}

func TestInsertTriggersSplitIntoMultipleSegments(t *testing.T) {
	// Linear data loads as one segment; inserting a step pattern must
	// split it.
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i) * 1000
	}
	tr := load(t, keys, Options{Error: 20, BufferSize: 10})
	before := tr.Stats().Pages
	// Hammer one small key range so its positions become locally dense.
	for i := 0; i < 2000; i++ {
		tr.Insert(uint64(2_000_000)+uint64(i%7), i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := tr.Stats().Pages
	if after <= before {
		t.Fatalf("pages %d -> %d: dense insert burst did not split", before, after)
	}
}

func TestDelete(t *testing.T) {
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i * 2)
	}
	tr := load(t, keys, Options{Error: 32})
	// Delete every fourth key.
	for i := 0; i < 10_000; i += 4 {
		if !tr.Delete(uint64(i * 2)) {
			t.Fatalf("Delete(%d) missed", i*2)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7500 {
		t.Fatalf("Len = %d, want 7500", tr.Len())
	}
	for i := 0; i < 10_000; i++ {
		_, ok := tr.Lookup(uint64(i * 2))
		want := i%4 != 0
		if ok != want {
			t.Fatalf("Lookup(%d) = %v, want %v", i*2, ok, want)
		}
	}
	// Delete everything.
	for i := 0; i < 10_000; i++ {
		tr.Delete(uint64(i * 2))
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteThenReuse(t *testing.T) {
	keys := []uint64{10, 20, 30}
	tr := load(t, keys, Options{Error: 4, BufferSize: 2})
	for _, k := range keys {
		tr.Delete(k)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	tr.Insert(99, 1)
	if v, ok := tr.Lookup(99); !ok || v != 1 {
		t.Fatalf("Lookup(99) = %d,%v after reuse", v, ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendRange(t *testing.T) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	tr := load(t, keys, Options{Error: 16, BufferSize: 8})
	// Add buffered keys in the middle of the range.
	tr.Insert(1501, -1)
	tr.Insert(1502, -2)

	var got []uint64
	tr.AscendRange(1500, 1600, func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{1500, 1501, 1502, 1503, 1506, 1509, 1512, 1515, 1518, 1521, 1524,
		1527, 1530, 1533, 1536, 1539, 1542, 1545, 1548, 1551, 1554, 1557, 1560,
		1563, 1566, 1569, 1572, 1575, 1578, 1581, 1584, 1587, 1590, 1593, 1596, 1599}
	if len(got) != len(want) {
		t.Fatalf("range returned %d keys, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Inverted and empty ranges.
	n := 0
	tr.AscendRange(100, 50, func(k uint64, v int) bool { n++; return true })
	if n != 0 {
		t.Fatal("inverted range visited elements")
	}
	tr.AscendRange(1_000_000, 2_000_000, func(k uint64, v int) bool { n++; return true })
	if n != 0 {
		t.Fatal("beyond-max range visited elements")
	}
}

func TestAscendVisitsEverythingInOrder(t *testing.T) {
	keys := workload.Weblogs(30_000, 3)
	tr := load(t, keys, Options{Error: 100})
	// Mix in inserts.
	rng := rand.New(rand.NewSource(4))
	extra := make([]uint64, 3000)
	for i := range extra {
		extra[i] = uint64(rng.Int63n(int64(keys[len(keys)-1])))
		tr.Insert(extra[i], -i)
	}
	var prev uint64
	n := 0
	tr.Ascend(func(k uint64, v int) bool {
		if n > 0 && k < prev {
			t.Fatalf("Ascend out of order at %d: %d < %d", n, k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != 33_000 {
		t.Fatalf("Ascend visited %d, want 33000", n)
	}
}

func TestMinMax(t *testing.T) {
	keys := workload.IoT(10_000, 5)
	tr := load(t, keys, Options{Error: 50})
	mk, _, ok := tr.Min()
	if !ok || mk != keys[0] {
		t.Fatalf("Min = %d,%v, want %d", mk, ok, keys[0])
	}
	xk, _, ok := tr.Max()
	if !ok || xk != keys[len(keys)-1] {
		t.Fatalf("Max = %d,%v, want %d", xk, ok, keys[len(keys)-1])
	}
	tr.Insert(keys[len(keys)-1]+100, -1)
	if xk, _, _ = tr.Max(); xk != keys[len(keys)-1]+100 {
		t.Fatalf("Max after insert = %d", xk)
	}
}

func TestStatsAccounting(t *testing.T) {
	keys := workload.Weblogs(100_000, 6)
	small := load(t, keys, Options{Error: 10})
	big := load(t, keys, Options{Error: 1000})
	ss, bs := small.Stats(), big.Stats()
	if ss.Pages <= bs.Pages {
		t.Fatalf("smaller error should need more pages: %d vs %d", ss.Pages, bs.Pages)
	}
	if ss.IndexSize <= bs.IndexSize {
		t.Fatalf("smaller error should need a bigger index: %d vs %d", ss.IndexSize, bs.IndexSize)
	}
	if ss.Elements != 100_000 || bs.Elements != 100_000 {
		t.Fatalf("element accounting off: %d / %d", ss.Elements, bs.Elements)
	}
	if ss.DataSize != bs.DataSize {
		t.Fatalf("data size should not depend on error: %d vs %d", ss.DataSize, bs.DataSize)
	}
	// The inner tree is the chain's two levels of start arrays: a key and a
	// pointer per page and per chunk, under 24 B of model per segment.
	for _, s := range []Stats{ss, bs} {
		if s.IndexSize != 16*int64(s.Pages+s.Chunks)+24*int64(s.Pages) {
			t.Fatalf("inner tree accounting off: %+v", s)
		}
	}
}

func TestLookupBreakdown(t *testing.T) {
	keys := workload.IoT(20_000, 7)
	tr := load(t, keys, Options{Error: 100})
	v, ok, treeNs, pageNs := tr.LookupBreakdown(keys[1234])
	if !ok || keys[v] != keys[1234] {
		t.Fatalf("breakdown lookup wrong: %d %v", v, ok)
	}
	if treeNs < 0 || pageNs < 0 {
		t.Fatalf("negative phase times: %d %d", treeNs, pageNs)
	}
	_, ok, _, _ = tr.LookupBreakdown(keys[len(keys)-1] + 12345)
	if ok {
		t.Fatal("breakdown hit for absent key")
	}
}

func TestFloatKeysClustered(t *testing.T) {
	keys := workload.MapsLongitude(20_000, 8)
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	tr, err := BulkLoad(keys, vals, Options{Error: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 37 {
		v, ok := tr.Lookup(keys[i])
		if !ok || keys[v] != keys[i] {
			t.Fatalf("Lookup(%f) = %d,%v", keys[i], v, ok)
		}
	}
}

func TestZeroBufferSize(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 5)
	}
	tr := load(t, keys, Options{Error: 10, BufferSize: 0})
	for i := 0; i < 500; i++ {
		tr.Insert(uint64(i*5+2), -i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Buffered != 0 {
		t.Fatalf("zero-buffer tree has %d buffered elements", st.Buffered)
	}
	if tr.Counters().Merges != 500 {
		t.Fatalf("merges = %d, want 500 (one per insert)", tr.Counters().Merges)
	}
}

// TestQuickMatchesReferenceModel drives random bulk load + insert + delete
// + lookup traffic and compares against a sorted multiset reference.
func TestQuickMatchesReferenceModel(t *testing.T) {
	type refEntry struct {
		key uint64
	}
	_ = refEntry{}
	f := func(seed int64, bulkRaw []uint16, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		bulk := make([]uint64, len(bulkRaw))
		for i, r := range bulkRaw {
			bulk[i] = uint64(r % 2048)
		}
		sort.Slice(bulk, func(i, j int) bool { return bulk[i] < bulk[j] })
		vals := make([]int, len(bulk))
		opts := Options{Error: 2 + rng.Intn(60)}
		if rng.Intn(2) == 0 {
			opts.BufferSize = rng.Intn(opts.Error)
		} else {
			opts.BufferSize = -1 // default: Error/2
		}
		tr, err := BulkLoad(bulk, vals, opts)
		if err != nil {
			return false
		}
		counts := map[uint64]int{}
		for _, k := range bulk {
			counts[k]++
		}
		for _, op := range ops {
			k := uint64(op % 2048)
			switch op % 3 {
			case 0:
				tr.Insert(k, 0)
				counts[k]++
			case 1:
				if tr.Delete(k) != (counts[k] > 0) {
					return false
				}
				if counts[k] > 0 {
					counts[k]--
				}
			case 2:
				_, ok := tr.Lookup(k)
				if ok != (counts[k] > 0) {
					return false
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if tr.Len() != total {
			return false
		}
		// Full ordered iteration matches the reference multiset.
		seen := map[uint64]int{}
		var prev uint64
		first := true
		okIter := true
		tr.Ascend(func(k uint64, v int) bool {
			if !first && k < prev {
				okIter = false
				return false
			}
			first = false
			prev = k
			seen[k]++
			return true
		})
		if !okIter {
			return false
		}
		for k, c := range counts {
			if c != 0 && seen[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeMatchesReference compares AscendRange against a sorted
// slice for random ranges.
func TestQuickRangeMatchesReference(t *testing.T) {
	f := func(bulkRaw []uint16, ranges []uint16) bool {
		bulk := make([]uint64, len(bulkRaw))
		for i, r := range bulkRaw {
			bulk[i] = uint64(r % 1024)
		}
		sort.Slice(bulk, func(i, j int) bool { return bulk[i] < bulk[j] })
		vals := make([]int, len(bulk))
		tr, err := BulkLoad(bulk, vals, Options{Error: 8})
		if err != nil {
			return false
		}
		for i := 0; i+1 < len(ranges); i += 2 {
			lo := uint64(ranges[i] % 1024)
			hi := uint64(ranges[i+1] % 1024)
			if hi < lo {
				lo, hi = hi, lo
			}
			want := 0
			for _, k := range bulk {
				if k >= lo && k <= hi {
					want++
				}
			}
			got := 0
			bad := false
			tr.AscendRange(lo, hi, func(k uint64, v int) bool {
				if k < lo || k > hi {
					bad = true
					return false
				}
				got++
				return true
			})
			if bad || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNaNKeysRejected(t *testing.T) {
	nan := math.NaN()
	if _, err := BulkLoad([]float64{1, nan, 3}, []int{0, 0, 0}, Options{Error: 4, BufferSize: 2}); err == nil {
		t.Fatal("BulkLoad accepted a NaN key")
	}
	tr, err := BulkLoad([]float64{1, 2, 3}, []int{0, 0, 0}, Options{Error: 4, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of NaN did not panic")
		}
	}()
	tr.Insert(nan, 0)
}

func TestDescendRangeMatchesReversedAscend(t *testing.T) {
	keys := workload.IoT(20_000, 61)
	tr := load(t, keys, Options{Error: 32, BufferSize: 16})
	// Mix in buffered inserts and deletes so both paths are exercised.
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 3000; i++ {
		k := keys[rng.Intn(len(keys))]
		if i%3 == 0 {
			tr.Delete(k)
		} else {
			tr.Insert(k+1, -i)
		}
	}
	for trial := 0; trial < 30; trial++ {
		i := rng.Intn(len(keys) - 1000)
		lo, hi := keys[i], keys[i+999]
		var asc, desc []uint64
		tr.AscendRange(lo, hi, func(k uint64, v int) bool {
			asc = append(asc, k)
			return true
		})
		tr.DescendRange(hi, lo, func(k uint64, v int) bool {
			desc = append(desc, k)
			return true
		})
		if len(asc) != len(desc) {
			t.Fatalf("trial %d: asc %d keys, desc %d", trial, len(asc), len(desc))
		}
		for j := range asc {
			if asc[j] != desc[len(desc)-1-j] {
				t.Fatalf("trial %d: order mismatch at %d", trial, j)
			}
		}
	}
}

func TestDescendRangeEdges(t *testing.T) {
	keys := []uint64{10, 20, 20, 20, 30, 40}
	tr := load(t, keys, Options{Error: 4, BufferSize: 2})
	var got []uint64
	tr.DescendRange(25, 15, func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != 20 {
		t.Fatalf("DescendRange(25,15) = %v", got)
	}
	// Early stop.
	n := 0
	tr.DescendRange(40, 10, func(k uint64, v int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
	// Inverted and empty.
	n = 0
	tr.DescendRange(10, 40, func(k uint64, v int) bool { n++; return true })
	if n != 0 {
		t.Fatal("inverted range visited elements")
	}
	tr.DescendRange(5, 1, func(k uint64, v int) bool { n++; return true })
	if n != 0 {
		t.Fatal("below-min range visited elements")
	}
	empty := load(t, nil, Options{})
	empty.DescendRange(10, 1, func(k uint64, v int) bool { n++; return true })
	if n != 0 {
		t.Fatal("empty tree visited elements")
	}
}
