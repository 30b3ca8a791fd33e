package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fitingtree/internal/segment"
	"fitingtree/internal/workload"
)

func TestImplicitRouterFloorMatchesBTree(t *testing.T) {
	keys := workload.Weblogs(40_000, 31)
	vals := make([]int, len(keys))
	bt, err := BulkLoad(keys, vals, Options{Error: 64, Router: RouterBTree})
	if err != nil {
		t.Fatal(err)
	}
	im, err := BulkLoad(keys, vals, Options{Error: 64, Router: RouterImplicit})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	maxKey := keys[len(keys)-1] + 1000
	for i := 0; i < 100_000; i++ {
		k := uint64(rng.Int63n(int64(maxKey)))
		_, okB := bt.Lookup(k)
		_, okI := im.Lookup(k)
		if okB != okI {
			t.Fatalf("routers disagree on %d: btree=%v implicit=%v", k, okB, okI)
		}
	}
	if err := im.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitRouterMutations(t *testing.T) {
	keys := make([]uint64, 3000)
	for i := range keys {
		keys[i] = uint64(i * 7)
	}
	vals := make([]int, len(keys))
	tr, err := BulkLoad(keys, vals, Options{Error: 16, BufferSize: 8, Router: RouterImplicit})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	present := map[uint64]int{}
	for _, k := range keys {
		present[k]++
	}
	for i := 0; i < 15_000; i++ {
		k := uint64(rng.Intn(25_000))
		switch i % 3 {
		case 0:
			tr.Insert(k, i)
			present[k]++
		case 1:
			if tr.Delete(k) != (present[k] > 0) {
				t.Fatalf("delete mismatch at %d", k)
			}
			if present[k] > 0 {
				present[k]--
			}
		default:
			if _, ok := tr.Lookup(k); ok != (present[k] > 0) {
				t.Fatalf("lookup mismatch at %d", k)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitRouterEmptyAndBootstrap(t *testing.T) {
	tr, err := BulkLoad[uint64, int](nil, nil, Options{Error: 8, BufferSize: 4, Router: RouterImplicit})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Lookup(1); ok {
		t.Fatal("hit on empty implicit-router tree")
	}
	tr.Insert(5, 50)
	tr.Insert(3, 30)
	tr.Insert(9, 90)
	for _, k := range []uint64{3, 5, 9} {
		if v, ok := tr.Lookup(k); !ok || v != int(k)*10 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitRouterStats(t *testing.T) {
	keys := workload.IoT(20_000, 34)
	vals := make([]int, len(keys))
	tr, err := BulkLoad(keys, vals, Options{Error: 50, Router: RouterImplicit})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Pages < 1 {
		t.Fatalf("pages = %d", st.Pages)
	}
	// The implicit router stores exactly 16 bytes per routed page.
	if st.Inner.SizeBytes != int64(st.Inner.Len)*16 {
		t.Fatalf("implicit router size %d for %d entries", st.Inner.SizeBytes, st.Inner.Len)
	}
	bt, _ := BulkLoad(keys, vals, Options{Error: 50, Router: RouterBTree})
	if st.IndexSize > bt.Stats().IndexSize {
		t.Fatalf("implicit index (%d) larger than btree index (%d)", st.IndexSize, bt.Stats().IndexSize)
	}
}

func TestRejectInvalidRouter(t *testing.T) {
	if _, err := BulkLoad([]uint64{1}, []int{0}, Options{Router: RouterKind(5)}); err == nil {
		t.Fatal("accepted invalid router kind")
	}
}

// Property: implicit floor search agrees with sort-based floor on random
// strictly ascending key sets.
func TestQuickImplicitFloor(t *testing.T) {
	f := func(raw []uint16, probes []uint16) bool {
		seen := map[uint64]bool{}
		var keys []uint64
		for _, r := range raw {
			k := uint64(r)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		r := &implicitRouter[uint64, int]{}
		// The floor search only consults keys; the routed pages just have
		// to be real, so park every entry on one dummy page.
		dummy := newPage(
			1, segment.Segment[uint64]{Start: 0, Count: 1, Slope: 0}, []uint64{0}, []int{0}, 1,
		)
		pages := make([]*page[uint64, int], len(keys))
		for i := range pages {
			pages[i] = dummy
		}
		if err := r.bulkLoad(keys, pages, 1); err != nil {
			return false
		}
		for _, pr := range probes {
			q := uint64(pr)
			want := sort.Search(len(keys), func(i int) bool { return keys[i] > q }) - 1
			got := r.searchFloor(q)
			if got != want {
				return false
			}
		}
		return r.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
