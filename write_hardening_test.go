package fitingtree_test

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fitingtree"
)

// TestOptimisticNaNGuards pins the write-path NaN guards: Insert has
// panicked on NaN keys since the facade landed, and Delete must apply the
// same guard — a NaN reaching the sorted delta's binary searches would
// corrupt its invariant silently.
func TestOptimisticNaNGuards(t *testing.T) {
	tr, err := fitingtree.BulkLoad([]float64{1, 2, 3}, []int{1, 2, 3}, fitingtree.Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := fitingtree.NewOptimistic(tr)
	expectPanic(t, "Optimistic.Insert", func() { o.Insert(math.NaN(), 9) })
	expectPanic(t, "Optimistic.Delete", func() { o.Delete(math.NaN()) })
	// The guarded facade is still intact afterwards.
	if v, ok := o.Lookup(2); !ok || v != 2 {
		t.Fatalf("Lookup(2) = %d, %v after NaN panics", v, ok)
	}
	if !o.Delete(2) || o.Contains(2) {
		t.Fatal("Delete(2) after NaN panics misbehaved")
	}
}

// TestSetFlushEveryConcurrent drives SetFlushEvery from one goroutine
// while a writer and readers run — the threshold is an atomic now, so this
// must be race-clean (run with -race) and every chosen threshold must
// still be honored eventually.
func TestSetFlushEveryConcurrent(t *testing.T) {
	o := buildOpt(t, seqKeys(1000, 2), 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				o.SetFlushEvery(1 + i%128)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			o.Lookup(uint64(i % 3000))
			o.Each(uint64(i%3000), func(uint64) bool { return true })
		}
	}()
	for i := 0; i < 5000; i++ {
		k := uint64(i*2 + 1)
		o.Insert(k, k)
		if i%7 == 0 {
			o.Delete(k)
		}
	}
	close(stop)
	wg.Wait()
	want := 1000 + 5000 - (5000+6)/7
	if o.Len() != want {
		t.Fatalf("Len = %d, want %d", o.Len(), want)
	}
	// Thresholds set after the churn still apply to subsequent writes: the
	// insert below trips a flush (freeze, with the default async pipeline)
	// and a drain leaves nothing buffered.
	o.SetFlushEvery(1)
	o.Insert(1, 1)
	o.SyncFlush()
	if st := o.Stats(); st.Buffered != 0 {
		t.Fatalf("flush at 1 left %d buffered delta inserts", st.Buffered)
	}
}

// TestLookupBatchMixedDelta pins the batch read path against every delta
// shape at once: keys with pending adds, keys with tombstones (partial and
// total), keys with both, absent keys, and untouched keys — and checks the
// batch agrees element-wise with single Lookups on the same snapshot.
func TestLookupBatchMixedDelta(t *testing.T) {
	// Base: keys 0,4,8,...,4092; key 2000 appears 5 times total.
	var base []uint64
	for i := 0; i < 1024; i++ {
		base = append(base, uint64(i*4))
	}
	base = append(base, 2000, 2000, 2000, 2000)
	sortU64(base)
	o := buildOpt(t, base, 1<<20) // never flush: the delta holds everything

	o.Insert(3, 3)       // pending add on an absent key
	o.Insert(8, 8)       // pending add on a present key
	o.Delete(16)         // tombstone wiping the only match
	o.Delete(2000)       // partial tombstone on a duplicate run (4 remain)
	o.Insert(2000, 2000) // ...plus a pending add on the same key
	o.Delete(24)         // tombstone + pending add: net one live match
	o.Insert(24, 24)
	for i := 0; i < 5; i++ { // total tombstone via repeated deletes
		if !o.Delete(2000) {
			t.Fatalf("Delete(2000) #%d missed", i)
		}
	}

	probes := []uint64{
		3,    // delta-only add -> found
		8,    // base + pending add -> found
		16,   // fully tombstoned -> absent
		24,   // tombstoned base but pending add -> found
		2000, // add consumed, then all 4 base matches tombstoned -> absent
		40,   // untouched base key -> found
		41,   // never existed -> absent
	}
	// Batch in random, sorted, and reversed orders — all must agree with
	// point lookups.
	orders := [][]uint64{probes, nil, nil}
	orders[1] = append([]uint64(nil), probes...)
	sortU64(orders[1])
	orders[2] = append([]uint64(nil), orders[1]...)
	for i, j := 0, len(orders[2])-1; i < j; i, j = i+1, j-1 {
		orders[2][i], orders[2][j] = orders[2][j], orders[2][i]
	}
	for oi, batch := range orders {
		vals, found := o.LookupBatch(batch)
		for i, k := range batch {
			wv, wok := o.Lookup(k)
			if found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("order %d: LookupBatch(%d) = (%d,%v), Lookup = (%d,%v)",
					oi, k, vals[i], found[i], wv, wok)
			}
		}
	}
	// Spot-check the absolute expectations, not just batch/point agreement.
	vals, found := o.LookupBatch(probes)
	wantFound := []bool{true, true, false, true, false, true, false}
	for i := range probes {
		if found[i] != wantFound[i] {
			t.Fatalf("probe %d (%d): found %v, want %v", i, probes[i], found[i], wantFound[i])
		}
		if found[i] && vals[i] != probes[i] {
			t.Fatalf("probe %d (%d): val %d", i, probes[i], vals[i])
		}
	}

	// Survivor selection: with distinct values, a partial tombstone must
	// surface a surviving duplicate (not the dead first match) on the
	// batch path too.
	tr, err := fitingtree.BulkLoad([]uint64{5, 7, 7, 7, 9}, []string{"a", "first", "second", "third", "b"},
		fitingtree.Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	od := fitingtree.NewOptimistic(tr)
	od.Delete(7)
	vs, fs := od.LookupBatch([]uint64{5, 7, 9})
	if !fs[0] || !fs[1] || !fs[2] {
		t.Fatalf("found = %v, want all true", fs)
	}
	if vs[1] != "second" {
		t.Fatalf("survivor = %q, want %q (first match in scan order is tombstoned)", vs[1], "second")
	}
}

// optModel is a reference implementation of the Optimistic facade's
// documented write semantics — pending inserts per key in insertion order,
// tombstones counting the first N matches in scan order, deletes consuming
// the newest pending insert first, and a flush (triggered at the same
// pending-write threshold) that folds survivors-then-adds into the base in
// exactly that order. Distinct values make any deviation in duplicate
// ordering or tombstone accounting visible.
type optModel struct {
	flushAt  int
	base     map[uint64][]uint64
	pendAdds map[uint64][]uint64
	pendDels map[uint64]int
	pending  int
}

func newOptModel(keys, vals []uint64, flushAt int) *optModel {
	m := &optModel{
		flushAt:  flushAt,
		base:     map[uint64][]uint64{},
		pendAdds: map[uint64][]uint64{},
		pendDels: map[uint64]int{},
	}
	for i, k := range keys {
		m.base[k] = append(m.base[k], vals[i])
	}
	return m
}

func (m *optModel) insert(k, v uint64) {
	m.pendAdds[k] = append(m.pendAdds[k], v)
	m.pending++
	m.maybeFlush()
}

func (m *optModel) delete(k uint64) bool {
	if adds := m.pendAdds[k]; len(adds) > 0 {
		m.pendAdds[k] = adds[:len(adds)-1]
		m.pending--
		m.maybeFlush()
		return true
	}
	if len(m.base[k])-m.pendDels[k] <= 0 {
		return false
	}
	m.pendDels[k]++
	m.pending++
	m.maybeFlush()
	return true
}

func (m *optModel) maybeFlush() {
	if m.pending < m.flushAt {
		return
	}
	for k, d := range m.pendDels {
		m.base[k] = append([]uint64(nil), m.base[k][d:]...)
	}
	for k, adds := range m.pendAdds {
		m.base[k] = append(m.base[k], adds...)
	}
	m.pendAdds = map[uint64][]uint64{}
	m.pendDels = map[uint64]int{}
	m.pending = 0
}

// each returns the live values of k in scan order: surviving base matches,
// then pending inserts.
func (m *optModel) each(k uint64) []uint64 {
	var out []uint64
	if b := m.base[k]; len(b) > m.pendDels[k] {
		out = append(out, b[m.pendDels[k]:]...)
	}
	return append(out, m.pendAdds[k]...)
}

func (m *optModel) len() int {
	n := 0
	for k := range m.base {
		n += len(m.each(k))
	}
	for k := range m.pendAdds {
		if _, inBase := m.base[k]; !inBase {
			n += len(m.pendAdds[k])
		}
	}
	return n
}

func (m *optModel) liveKeys() []uint64 {
	seen := map[uint64]bool{}
	var keys []uint64
	add := func(k uint64) {
		if !seen[k] && len(m.each(k)) > 0 {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range m.base {
		add(k)
	}
	for k := range m.pendAdds {
		add(k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TestOptimisticModelRandomized drives interleaved Insert/Delete with
// distinct value ids through Optimistic facades at several flush cadences
// and compares full value sequences against the reference model after
// every phase — pinning the "first N matches in scan order" tombstone
// semantics exactly across MergeCOW flush boundaries, where a wrong
// duplicate victim or a reordered fold would change the observed values.
// It runs in inline-flush mode: exact victim selection among
// distinct-valued duplicates depends on flush points (a pending insert is
// consumed by Delete only until a freeze or fold moves it into the base
// layer), so only deterministic flush timing admits exact-sequence
// checks. TestOptimisticModelRandomizedAsync covers the async pipeline
// with the flush-timing-invariant subset of these assertions.
func TestOptimisticModelRandomized(t *testing.T) {
	for _, flushAt := range []int{1, 2, 13, 64, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(flushAt) * 31))
		nextVal := uint64(1 << 32) // distinct value ids, disjoint from keys
		base := make([]uint64, 1500)
		baseVals := make([]uint64, 1500)
		for i := range base {
			base[i] = uint64(rng.Intn(300) * 6) // heavy duplication
		}
		sortU64(base)
		for i := range baseVals {
			baseVals[i] = nextVal
			nextVal++
		}
		tr, err := fitingtree.BulkLoad(base, baseVals, fitingtree.Options{Error: 32, BufferSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		o := fitingtree.NewOptimistic(tr)
		o.SetAsyncFlush(false) // exact-sequence checks need deterministic flush points
		o.SetFlushEvery(flushAt)
		m := newOptModel(base, baseVals, flushAt)

		check := func(phase int) {
			t.Helper()
			if o.Len() != m.len() {
				t.Fatalf("flushAt=%d phase %d: Len %d, model %d", flushAt, phase, o.Len(), m.len())
			}
			// Full scan: (key, value) sequence must match the model's
			// per-key scan order stitched over sorted live keys.
			var wantK, wantV []uint64
			for _, k := range m.liveKeys() {
				for _, v := range m.each(k) {
					wantK = append(wantK, k)
					wantV = append(wantV, v)
				}
			}
			i := 0
			o.AscendRange(0, 1<<62, func(k, v uint64) bool {
				if i >= len(wantK) || k != wantK[i] || v != wantV[i] {
					t.Fatalf("flushAt=%d phase %d: scan[%d] = (%d,%d), model (%d,%d)",
						flushAt, phase, i, k, v, wantK[i], wantV[i])
				}
				i++
				return true
			})
			if i != len(wantK) {
				t.Fatalf("flushAt=%d phase %d: scan visited %d, model %d", flushAt, phase, i, len(wantK))
			}
			// Point paths: Each sequences and batch lookups on sampled keys.
			probe := make([]uint64, 0, 128)
			for j := 0; j < 128; j++ {
				probe = append(probe, uint64(rng.Intn(2000)))
			}
			bv, bf := o.LookupBatch(probe)
			for pi, k := range probe {
				want := m.each(k)
				var got []uint64
				o.Each(k, func(v uint64) bool { got = append(got, v); return true })
				if len(got) != len(want) {
					t.Fatalf("flushAt=%d phase %d: Each(%d) = %v, model %v", flushAt, phase, k, got, want)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("flushAt=%d phase %d: Each(%d) = %v, model %v", flushAt, phase, k, got, want)
					}
				}
				if bf[pi] != (len(want) > 0) {
					t.Fatalf("flushAt=%d phase %d: batch found[%d]=%v, model has %d matches",
						flushAt, phase, k, bf[pi], len(want))
				}
				if bf[pi] {
					// The batch path surfaces some live match; with the
					// delta folded by flushes at arbitrary points the
					// exact pick is pinned to a member of the live set.
					ok := false
					for _, v := range want {
						if bv[pi] == v {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("flushAt=%d phase %d: batch val for %d = %d not in live set %v",
							flushAt, phase, k, bv[pi], want)
					}
				}
			}
		}

		check(-1)
		for phase := 0; phase < 4; phase++ {
			for i := 0; i < 500; i++ {
				k := uint64(rng.Intn(2000))
				if rng.Intn(3) == 0 {
					if got, want := o.Delete(k), m.delete(k); got != want {
						t.Fatalf("flushAt=%d: Delete(%d) = %v, model %v", flushAt, k, got, want)
					}
				} else {
					v := nextVal
					nextVal++
					o.Insert(k, v)
					m.insert(k, v)
				}
			}
			check(phase)
		}
	}
}

// TestOptimisticModelRandomizedAsync extends the randomized model test to
// the asynchronous flush pipeline: the single writer races the background
// flusher (run under -race), so reads constantly cross freeze and publish
// boundaries. Exact victim selection among distinct-valued duplicates is
// flush-timing-dependent (see TestOptimisticModelRandomized), so this
// variant checks the flush-timing-invariant contract instead: Delete
// outcomes, total and per-key live counts, globally ordered scans, batch
// found flags, and that every surviving value was genuinely inserted (or
// bulk-loaded) under its key.
func TestOptimisticModelRandomizedAsync(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testOptimisticModelRandomizedAsync(t, ms.shift) })
	}
}

func testOptimisticModelRandomizedAsync(t *testing.T, shift int64) {
	for _, flushAt := range []int{1, 2, 13, 64} {
		rng := rand.New(rand.NewSource(int64(flushAt)*101 + shift))
		nextVal := uint64(1 << 32)
		base := make([]uint64, 1500)
		baseVals := make([]uint64, 1500)
		for i := range base {
			base[i] = uint64(rng.Intn(300) * 6) // heavy duplication
		}
		sortU64(base)
		everVals := map[uint64]map[uint64]bool{} // key -> all values ever stored
		for i := range baseVals {
			baseVals[i] = nextVal
			nextVal++
			if everVals[base[i]] == nil {
				everVals[base[i]] = map[uint64]bool{}
			}
			everVals[base[i]][baseVals[i]] = true
		}
		tr, err := fitingtree.BulkLoad(base, baseVals, fitingtree.Options{Error: 32, BufferSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		o := fitingtree.NewOptimistic(tr)
		o.SetAsyncFlush(true) // the pipeline under test, whatever GOMAXPROCS says
		o.SetFlushEvery(flushAt)
		m := newOptModel(base, baseVals, flushAt)

		check := func(phase int) {
			t.Helper()
			if o.Len() != m.len() {
				t.Fatalf("flushAt=%d phase %d: Len %d, model %d", flushAt, phase, o.Len(), m.len())
			}
			// Global scan: key sequence must match the model exactly (key
			// order is flush-invariant), and every value must have been
			// stored under its key at some point.
			var wantK []uint64
			for _, k := range m.liveKeys() {
				for range m.each(k) {
					wantK = append(wantK, k)
				}
			}
			i := 0
			o.AscendRange(0, 1<<62, func(k, v uint64) bool {
				if i >= len(wantK) || k != wantK[i] {
					t.Fatalf("flushAt=%d phase %d: scan[%d] key = %d, model %d",
						flushAt, phase, i, k, wantK[i])
				}
				if !everVals[k][v] {
					t.Fatalf("flushAt=%d phase %d: scan[%d] = (%d,%d): value never stored under key",
						flushAt, phase, i, k, v)
				}
				i++
				return true
			})
			if i != len(wantK) {
				t.Fatalf("flushAt=%d phase %d: scan visited %d, model %d", flushAt, phase, i, len(wantK))
			}
			// Point paths: per-key counts and batch found flags.
			probe := make([]uint64, 0, 128)
			for j := 0; j < 128; j++ {
				probe = append(probe, uint64(rng.Intn(2000)))
			}
			bv, bf := o.LookupBatch(probe)
			for pi, k := range probe {
				want := m.each(k)
				got := 0
				o.Each(k, func(v uint64) bool {
					if !everVals[k][v] {
						t.Fatalf("flushAt=%d phase %d: Each(%d) yielded alien value %d", flushAt, phase, k, v)
					}
					got++
					return true
				})
				if got != len(want) {
					t.Fatalf("flushAt=%d phase %d: Each(%d) count %d, model %d", flushAt, phase, k, got, len(want))
				}
				if bf[pi] != (len(want) > 0) {
					t.Fatalf("flushAt=%d phase %d: batch found[%d]=%v, model has %d matches",
						flushAt, phase, k, bf[pi], len(want))
				}
				if bf[pi] && !everVals[k][bv[pi]] {
					t.Fatalf("flushAt=%d phase %d: batch val for %d = %d never stored", flushAt, phase, k, bv[pi])
				}
			}
		}

		check(-1)
		for phase := 0; phase < 4; phase++ {
			for i := 0; i < 500; i++ {
				k := uint64(rng.Intn(2000))
				if rng.Intn(3) == 0 {
					if got, want := o.Delete(k), m.delete(k); got != want {
						t.Fatalf("flushAt=%d: Delete(%d) = %v, model %v", flushAt, k, got, want)
					}
				} else {
					v := nextVal
					nextVal++
					if everVals[k] == nil {
						everVals[k] = map[uint64]bool{}
					}
					everVals[k][v] = true
					o.Insert(k, v)
					m.insert(k, v)
				}
			}
			check(phase)
		}
		// Drain the pipeline and re-verify: the fold must not change any
		// flush-invariant observation.
		o.Close()
		check(4)
	}
}
