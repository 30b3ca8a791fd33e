package fitingtree_test

import (
	"math/rand"
	"sort"
	"testing"

	"fitingtree"
)

// buildOpt bulk-loads a tree with val == key and wraps it in an Optimistic
// facade flushing every flushAt writes.
func buildOpt(t *testing.T, keys []uint64, flushAt int) *fitingtree.Optimistic[uint64, uint64] {
	t.Helper()
	tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...), fitingtree.Options{Error: 32, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	o := fitingtree.NewOptimistic(tr)
	if flushAt > 0 {
		o.SetFlushEvery(flushAt)
	}
	return o
}

func TestOptimisticBasic(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	o := buildOpt(t, keys, 64)

	for _, k := range keys {
		v, ok := o.Lookup(k)
		if !ok || v != k {
			t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
		}
	}
	if o.Contains(1) {
		t.Fatal("Contains(1) on multiples of 3")
	}
	if o.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", o.Len(), len(keys))
	}

	// Insert enough to cross several flushes, interleaved with deletes.
	for i := 0; i < 500; i++ {
		o.Insert(uint64(i*3+1), uint64(i*3+1))
	}
	if o.Len() != 1500 {
		t.Fatalf("Len = %d, want 1500", o.Len())
	}
	for i := 0; i < 250; i++ {
		if !o.Delete(uint64(i * 3)) {
			t.Fatalf("Delete(%d) missed", i*3)
		}
	}
	if o.Delete(2) {
		t.Fatal("Delete(2) of absent key succeeded")
	}
	if o.Len() != 1250 {
		t.Fatalf("Len = %d, want 1250", o.Len())
	}
	for i := 0; i < 500; i++ {
		k := uint64(i*3 + 1)
		if v, ok := o.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) after churn = %d, %v", k, v, ok)
		}
	}
	for i := 0; i < 250; i++ {
		if o.Contains(uint64(i * 3)) {
			t.Fatalf("deleted key %d still present", i*3)
		}
	}
	st := o.Stats()
	if st.Elements != 1250 {
		t.Fatalf("Stats.Elements = %d, want 1250", st.Elements)
	}
}

func TestOptimisticDuplicates(t *testing.T) {
	// Key 50 appears 4 times in the base data.
	keys := []uint64{10, 20, 50, 50, 50, 50, 60, 70}
	o := buildOpt(t, keys, 1000) // large threshold: stay on the delta path

	count := func(k uint64) int {
		n := 0
		o.Each(k, func(v uint64) bool {
			if v != k {
				t.Fatalf("Each(%d) yielded %d", k, v)
			}
			n++
			return true
		})
		return n
	}
	if got := count(50); got != 4 {
		t.Fatalf("count(50) = %d, want 4", got)
	}
	// Two pending inserts and one tombstone on the same key.
	o.Insert(50, 50)
	o.Insert(50, 50)
	if got := count(50); got != 6 {
		t.Fatalf("count(50) = %d after inserts, want 6", got)
	}
	// Deletes consume pending inserts first, then tombstone base matches.
	for want := 5; want >= 0; want-- {
		if !o.Delete(50) {
			t.Fatalf("Delete(50) missed at multiplicity %d", want+1)
		}
		if got := count(50); got != want {
			t.Fatalf("count(50) = %d, want %d", got, want)
		}
	}
	if o.Delete(50) {
		t.Fatal("Delete(50) on exhausted key succeeded")
	}
	if o.Len() != len(keys)-4 {
		t.Fatalf("Len = %d, want %d", o.Len(), len(keys)-4)
	}
	// Neighbors are untouched.
	for _, k := range []uint64{10, 20, 60, 70} {
		if !o.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestOptimisticAscendRange(t *testing.T) {
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i * 2) // evens 0..398
	}
	o := buildOpt(t, keys, 1000)
	// Pending inserts between and on base keys, plus tombstones.
	o.Insert(101, 101)
	o.Insert(101, 101)
	o.Insert(100, 100) // duplicate of a base key
	o.Delete(102)      // tombstone a base key entirely
	o.Delete(104)

	var got []uint64
	o.AscendRange(96, 110, func(k, v uint64) bool {
		if v != k {
			t.Fatalf("AscendRange yielded (%d, %d)", k, v)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{96, 98, 100, 100, 101, 101, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("AscendRange keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange keys = %v, want %v", got, want)
		}
	}

	// Early stop mid-delta.
	n := 0
	o.AscendRange(96, 110, func(k, v uint64) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("early stop visited %d, want 4", n)
	}
}

func TestOptimisticEmptyStart(t *testing.T) {
	o := buildOpt(t, nil, 8)
	if o.Len() != 0 || o.Contains(5) {
		t.Fatal("empty facade not empty")
	}
	if o.Delete(5) {
		t.Fatal("Delete on empty facade succeeded")
	}
	for i := 0; i < 100; i++ {
		o.Insert(uint64(i), uint64(i))
	}
	if o.Len() != 100 {
		t.Fatalf("Len = %d, want 100", o.Len())
	}
	for i := 0; i < 100; i++ {
		if v, ok := o.Lookup(uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
		}
	}
}

// TestOptimisticMatchesTree drives identical random workloads through a
// plain Tree and an Optimistic facade (with values equal to keys, so
// arbitrary duplicate-victim choices cannot diverge) and compares the full
// contents after every phase.
func TestOptimisticMatchesTree(t *testing.T) {
	for _, flushAt := range []int{1, 7, 64, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(flushAt)))
		base := make([]uint64, 2000)
		for i := range base {
			base[i] = uint64(rng.Intn(500) * 4) // plenty of duplicates
		}
		sortU64(base)
		ref, err := fitingtree.BulkLoad(base, append([]uint64(nil), base...), fitingtree.Options{Error: 32, BufferSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		o := buildOpt(t, base, flushAt)

		check := func(phase string) {
			t.Helper()
			if o.Len() != ref.Len() {
				t.Fatalf("flushAt=%d %s: Len %d != ref %d", flushAt, phase, o.Len(), ref.Len())
			}
			var got, want []uint64
			o.AscendRange(0, 1<<62, func(k, v uint64) bool { got = append(got, k); return true })
			ref.AscendRange(0, 1<<62, func(k, v uint64) bool { want = append(want, k); return true })
			if len(got) != len(want) {
				t.Fatalf("flushAt=%d %s: scan lengths %d != %d", flushAt, phase, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("flushAt=%d %s: scan diverges at %d: %d != %d", flushAt, phase, i, got[i], want[i])
				}
			}
			for i := 0; i < 200; i++ {
				k := uint64(rng.Intn(2100))
				gv, gok := o.Lookup(k)
				wv, wok := ref.Lookup(k)
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("flushAt=%d %s: Lookup(%d) = (%d,%v) ref (%d,%v)", flushAt, phase, k, gv, gok, wv, wok)
				}
			}
		}
		check("initial")
		for phase := 0; phase < 4; phase++ {
			for i := 0; i < 300; i++ {
				k := uint64(rng.Intn(2100))
				if rng.Intn(3) == 0 {
					if o.Delete(k) != ref.Delete(k) {
						t.Fatalf("flushAt=%d: Delete(%d) outcome diverged", flushAt, k)
					}
				} else {
					o.Insert(k, k)
					ref.Insert(k, k)
				}
			}
			check("churn")
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func sortU64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
