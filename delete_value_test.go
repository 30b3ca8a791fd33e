package fitingtree_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fitingtree"
	"fitingtree/keycodec"
)

// TestDeleteValueVictimFlushIndependent pins the contract that closed the
// Delete wart: the victim of a value-addressed delete is the element the
// caller named, for every placement the pipeline can put the duplicates
// in — buffered, frozen anywhere on the ladder, or flushed to page data.
// Plain Delete cannot pass this check: its victim among distinct-valued
// duplicates is "newest pending insert, else first in scan order", so the
// survivor set depends on where the flush boundary fell when the delete
// arrived (see the Optimistic.Delete doc).
func TestDeleteValueVictimFlushIndependent(t *testing.T) {
	for _, flushAt := range []int{1, 2, 3, 100} {
		for _, async := range []bool{false, true} {
			tr, err := fitingtree.BulkLoad[uint64, string](nil, nil, fitingtree.Options{Error: 8, BufferSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			o := fitingtree.NewOptimistic(tr)
			o.SetAsyncFlush(async)
			o.SetFlushEvery(flushAt)

			// Three distinct-valued duplicates arriving across whatever
			// flush boundaries the config produces, plus unrelated keys
			// to keep the pipeline moving.
			o.Insert(7, "first")
			for i := 0; i < 5; i++ {
				o.Insert(uint64(100+i), "pad")
			}
			o.Insert(7, "second")
			for i := 0; i < 5; i++ {
				o.Insert(uint64(200+i), "pad")
			}
			o.Insert(7, "third")

			if !o.DeleteValue(7, "second") {
				t.Fatalf("flushAt=%d async=%v: DeleteValue(7, second) missed", flushAt, async)
			}
			if o.DeleteValue(7, "second") {
				t.Fatalf("flushAt=%d async=%v: double DeleteValue succeeded", flushAt, async)
			}
			if o.DeleteValue(7, "absent") {
				t.Fatalf("flushAt=%d async=%v: DeleteValue of absent value succeeded", flushAt, async)
			}
			survivors := map[string]bool{}
			o.Each(7, func(v string) bool {
				survivors[v] = true
				return true
			})
			if len(survivors) != 2 || !survivors["first"] || !survivors["third"] {
				t.Fatalf("flushAt=%d async=%v: survivors %v, want {first third}",
					flushAt, async, survivors)
			}
			// Close drains the ladder; the outcome must not move.
			o.Close()
			n := 0
			o.Each(7, func(v string) bool {
				if v == "second" {
					t.Fatalf("flushAt=%d async=%v: victim resurfaced after fold", flushAt, async)
				}
				n++
				return true
			})
			if n != 2 {
				t.Fatalf("flushAt=%d async=%v: %d survivors after fold", flushAt, async, n)
			}
		}
	}
}

// dvModel is an exact per-key value-multiset reference for the
// deterministic write mix used by the string-keyed suites: Insert,
// DeleteValue (victim named by the caller), and anonymous Delete issued
// only when a key's live values are all equal — the one case where its
// victim's value is forced regardless of flush timing.
type dvModel struct {
	vals map[string]map[uint64]int
	len  int
}

func newDVModel() *dvModel { return &dvModel{vals: map[string]map[uint64]int{}} }

func (m *dvModel) insert(k string, v uint64) {
	if m.vals[k] == nil {
		m.vals[k] = map[uint64]int{}
	}
	m.vals[k][v]++
	m.len++
}

func (m *dvModel) deleteValue(k string, v uint64) bool {
	if m.vals[k][v] == 0 {
		return false
	}
	m.vals[k][v]--
	m.len--
	return true
}

// deleteForced removes one element when the key's live values are all
// equal; ok is false (op must be skipped) when the victim is ambiguous.
func (m *dvModel) deleteForced(k string) (removed bool, ok bool) {
	distinct, live := uint64(0), 0
	classes := 0
	for v, c := range m.vals[k] {
		if c > 0 {
			distinct = v
			classes++
			live += c
		}
	}
	if classes > 1 {
		return false, false
	}
	if live == 0 {
		return false, true
	}
	m.vals[k][distinct]--
	m.len--
	return true, true
}

func (m *dvModel) counts(k string) map[uint64]int {
	out := map[uint64]int{}
	for v, c := range m.vals[k] {
		if c > 0 {
			out[v] = c
		}
	}
	return out
}

// stringIndex is the write surface the string-keyed suites drive, shared
// by Optimistic and Sharded.
type stringIndex interface {
	Insert(k string, v uint64)
	Delete(k string) bool
	DeleteValue(k string, v uint64) bool
	Each(k string, fn func(v uint64) bool)
	AscendRange(lo, hi string, fn func(k string, v uint64) bool)
	Len() int
	Close()
}

// driveStringModel runs the deterministic write mix against idx and the
// exact model, checking per-key multisets, total length, and globally
// ordered scans (string order over keycodec.Uint64 equals numeric order)
// at every phase and again after draining the pipeline.
func driveStringModel(t *testing.T, idx stringIndex, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := newDVModel()
	key := func(n int) string { return keycodec.Uint64(uint64(n)) }

	// Seed content through the facade so every layer sees traffic.
	for i := 0; i < 600; i++ {
		k := key(rng.Intn(200) * 3)
		v := uint64(rng.Intn(6))
		idx.Insert(k, v)
		m.insert(k, v)
	}

	check := func(phase int) {
		t.Helper()
		if idx.Len() != m.len {
			t.Fatalf("phase %d: Len = %d, model %d", phase, idx.Len(), m.len)
		}
		for i := 0; i < 64; i++ {
			k := key(rng.Intn(700))
			got := map[uint64]int{}
			idx.Each(k, func(v uint64) bool {
				got[v]++
				return true
			})
			want := m.counts(k)
			if len(got) != len(want) {
				t.Fatalf("phase %d: Each(%q) classes %v, model %v", phase, k, got, want)
			}
			for v, c := range want {
				if got[v] != c {
					t.Fatalf("phase %d: Each(%q) value %d count %d, model %d", phase, k, got[v], v, c)
				}
			}
		}
		// Global scan: keys ascend in string order, every (k,v) matches
		// the model's multiset exactly.
		scan := map[string]map[uint64]int{}
		prev := ""
		idx.AscendRange(key(0), key(1<<30), func(k string, v uint64) bool {
			if k < prev {
				t.Fatalf("phase %d: scan went backwards: %q after %q", phase, k, prev)
			}
			prev = k
			if scan[k] == nil {
				scan[k] = map[uint64]int{}
			}
			scan[k][v]++
			return true
		})
		for k, want := range m.vals {
			for v, c := range want {
				if c > 0 && scan[k][v] != c {
					t.Fatalf("phase %d: scan key %q value %d count %d, model %d", phase, k, v, scan[k][v], c)
				}
			}
		}
	}

	check(-1)
	for phase := 0; phase < 3; phase++ {
		for i := 0; i < 500; i++ {
			k := key(rng.Intn(700))
			switch r := rng.Intn(10); {
			case r < 5:
				v := uint64(rng.Intn(6))
				idx.Insert(k, v)
				m.insert(k, v)
			case r < 8:
				v := uint64(rng.Intn(6))
				if got, want := idx.DeleteValue(k, v), m.deleteValue(k, v); got != want {
					t.Fatalf("phase %d: DeleteValue(%q,%d) = %v, model %v", phase, k, v, got, want)
				}
			default:
				want, ok := m.deleteForced(k)
				if !ok {
					continue
				}
				if got := idx.Delete(k); got != want {
					t.Fatalf("phase %d: Delete(%q) = %v, model %v", phase, k, got, want)
				}
			}
		}
		check(phase)
	}
	idx.Close()
	check(3)
}

// TestStringKeyedLadderModel runs the exact multiset model against
// string-keyed Optimistic pipelines in both flush modes: the ordered-bytes
// key contract (native < for correctness, truncated-prefix Approx for
// interpolation only) must leave every observation identical to a
// numeric-keyed tree's. The depth labels only offset the seed and keep the
// subtest names stable.
func TestStringKeyedLadderModel(t *testing.T) {
	for _, ms := range modelSeeds {
		for _, depth := range []int{1, 2, 4, 8} {
			for _, async := range []bool{false, true} {
				mode := "inline"
				if async {
					mode = "async"
				}
				ms, depth, async := ms, depth, async
				t.Run(fmt.Sprintf("%s/depth=%d/%s", ms.name, depth, mode), func(t *testing.T) {
					for _, flushAt := range []int{2, 13} {
						tr, err := fitingtree.BulkLoad[string, uint64](nil, nil,
							fitingtree.Options{Error: 32, BufferSize: 8})
						if err != nil {
							t.Fatal(err)
						}
						o := fitingtree.NewOptimistic(tr)
						o.SetAsyncFlush(async)
						o.SetFlushEvery(flushAt)
						driveStringModel(t, o, int64(depth)*1009+int64(flushAt)+ms.shift)
					}
				})
			}
		}
	}
}

// TestStringKeyedShardedModel runs the same exact model against a
// string-keyed Sharded facade, exercising ordered-bytes keys through
// shard routing, rebalancing, and per-shard pipelines.
func TestStringKeyedShardedModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr, err := fitingtree.BulkLoad[string, uint64](nil, nil, fitingtree.Options{Error: 32, BufferSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			s, err := fitingtree.NewSharded(tr, shards)
			if err != nil {
				t.Fatal(err)
			}
			s.SetFlushEvery(7)
			driveStringModel(t, s, int64(shards)*7919)
		})
	}
}

// TestStringKeyedSecondary drives the randomized secondary-index model
// with ordered-bytes composite keys: a two-component keycodec.Tuple
// (city, Uint64(ts)) indexes rows whose postings must survive exact
// victim deletes among heavy duplication.
func TestStringKeyedSecondary(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr, err := fitingtree.BulkLoad[string, int](nil, nil, fitingtree.Options{Error: 16, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	o := fitingtree.NewOptimistic(tr)
	defer o.Close()
	idx := fitingtree.NewSecondary[string, int](o)
	cities := []string{"ber", "lim", "okl", "osl", "tok"}
	ref := map[string]map[int]bool{}
	for row := 0; row < 4_000; row++ {
		k := keycodec.Tuple(cities[rng.Intn(len(cities))], keycodec.Uint64(uint64(rng.Intn(50))))
		idx.Insert(k, row)
		if ref[k] == nil {
			ref[k] = map[int]bool{}
		}
		ref[k][row] = true
		if rng.Intn(3) == 0 { // delete a random existing posting
			for dk, rows := range ref {
				for dr := range rows {
					if !idx.Delete(dk, dr) {
						t.Fatalf("Delete(%q,%d) missed", dk, dr)
					}
					delete(rows, dr)
					break
				}
				break
			}
		}
	}
	want := 0
	for k, rows := range ref {
		want += len(rows)
		got := idx.Rows(k)
		if len(got) != len(rows) {
			t.Fatalf("key %q: %d postings, want %d", k, len(got), len(rows))
		}
		sort.Ints(got)
		for _, r := range got {
			if !rows[r] {
				t.Fatalf("key %q: alien posting %d", k, r)
			}
		}
	}
	if idx.Len() != want {
		t.Fatalf("Len = %d, want %d", idx.Len(), want)
	}
}
