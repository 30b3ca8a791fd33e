package fitingtree_test

// Black-box concurrency tests for the asynchronous flush pipeline: run
// with -race. Writers race the background flusher, readers cross freeze
// and publish boundaries, and snapshots are taken mid-flush.

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fitingtree"
)

// TestAsyncFlushStress races concurrent writers (disjoint key ranges, so
// Delete outcomes stay deterministic per goroutine), latch-free readers,
// mid-flight snapshots, and flush-threshold churn against the background
// flusher, then drains and verifies the full contents.
func TestAsyncFlushStress(t *testing.T) {
	const (
		writers   = 4
		perWriter = 3000
		span      = uint64(1 << 20)
	)
	base := make([]uint64, 20_000)
	for i := range base {
		base[i] = uint64(i) * (span * writers / 20_000)
	}
	o := buildOpt(t, base, 64)
	o.SetAsyncFlush(true) // exercise the pipeline regardless of GOMAXPROCS

	stop := make(chan struct{})
	var aux sync.WaitGroup
	// Readers: point, per-key, range, and batch paths, constantly crossing
	// freeze/publish boundaries.
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func(r int) {
			defer aux.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Int63n(int64(span * writers)))
				o.Lookup(k)
				o.Each(k, func(uint64) bool { return true })
				if i%16 == 0 {
					o.AscendRange(k, k+span/64, func(uint64, uint64) bool { return true })
				}
				if i%8 == 0 {
					batch := make([]uint64, 32)
					for j := range batch {
						batch[j] = uint64(rng.Int63n(int64(span * writers)))
					}
					o.LookupBatch(batch)
				}
			}
		}(r)
	}
	// Snapshotter + threshold churn: encodes must stay coherent mid-flush.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%4 == 0 {
				var buf bytes.Buffer
				if err := fitingtree.EncodeOptimistic(o, &buf); err != nil {
					t.Error(err)
					return
				}
			}
			o.SetFlushEvery(16 + i%96)
		}
	}()
	// Writers: each owns a disjoint odd-key range; every 5th write is a
	// delete/re-insert pair so tombstones flow through the pipeline too.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			lo := span * uint64(w)
			for i := 0; i < perWriter; i++ {
				k := (lo + uint64(rng.Int63n(int64(span)))) | 1 // odd: off the even base keys
				o.Insert(k, k)
				if i%5 == 0 {
					if !o.Delete(k) {
						t.Errorf("writer %d: Delete(%d) missed its own insert", w, k)
						return
					}
					o.Insert(k, k)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	o.Close()
	if want := len(base) + writers*perWriter; o.Len() != want {
		t.Fatalf("Len = %d after drain, want %d", o.Len(), want)
	}
	// The drained scan is sorted and visits exactly Len elements.
	prev := uint64(0)
	n := 0
	o.AscendRange(0, 1<<63, func(k, v uint64) bool {
		if n > 0 && k < prev {
			t.Fatalf("scan out of order at %d: %d < %d", n, k, prev)
		}
		if v != k {
			t.Fatalf("scan value mismatch: (%d, %d)", k, v)
		}
		prev = k
		n++
		return true
	})
	if n != o.Len() {
		t.Fatalf("scan visited %d, Len %d", n, o.Len())
	}
}

// TestEncodeDuringFlushCoherence pins snapshot coherence against the
// pipeline: encoding while a background flush is (very likely) in flight
// must produce bytes identical to encoding the same facade after a full
// drain — the encode-time fold applies the same layering the flusher
// applies physically.
func TestEncodeDuringFlushCoherence(t *testing.T) {
	for round := 0; round < 5; round++ {
		base := make([]uint64, 30_000)
		for i := range base {
			base[i] = uint64(i * 4)
		}
		o := buildOpt(t, base, 256)
		o.SetAsyncFlush(true)
		rng := rand.New(rand.NewSource(int64(round)))
		// Enough churn that a freeze lands close to the encode below.
		for i := 0; i < 2500; i++ {
			k := uint64(rng.Intn(len(base)*4)) | 1
			o.Insert(k, k)
			if i%7 == 0 {
				o.Delete(uint64(rng.Intn(len(base))) * 4)
			}
		}
		var mid bytes.Buffer
		if err := fitingtree.EncodeOptimistic(o, &mid); err != nil {
			t.Fatal(err)
		}
		o.SyncFlush()
		var quiesced bytes.Buffer
		if err := fitingtree.EncodeOptimistic(o, &quiesced); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mid.Bytes(), quiesced.Bytes()) {
			t.Fatalf("round %d: mid-flush encode (%d bytes) differs from quiesced encode (%d bytes)",
				round, mid.Len(), quiesced.Len())
		}
		o.Close()
	}
}

// TestShardedAsyncMatchesOptimistic drives one identical write stream
// (values equal to keys, so duplicate-victim choices cannot diverge)
// through an unsharded Optimistic and a Sharded facade with the async
// flusher enabled on both, and — without quiescing either — requires
// element-identical scans and byte-identical encoded snapshots however
// far each facade's pipeline has progressed.
func TestShardedAsyncMatchesOptimistic(t *testing.T) {
	base := make([]uint64, 40_000)
	for i := range base {
		base[i] = uint64(i) * 3
	}
	o := buildOpt(t, base, 128)
	o.SetAsyncFlush(true)
	tr, err := fitingtree.BulkLoad(base, append([]uint64(nil), base...), fitingtree.Options{Error: 32, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fitingtree.NewSharded(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFlushEvery(128)
	s.SetAsyncFlush(true)

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(len(base) * 3))
		if rng.Intn(4) == 0 {
			if o.Delete(k) != s.Delete(k) {
				t.Fatalf("Delete(%d) outcome diverged", k)
			}
		} else {
			o.Insert(k, k)
			s.Insert(k, k)
		}
		if i%1500 == 0 {
			// Mid-stream, pipelines in arbitrary positions: scans agree.
			var ok, sk []uint64
			o.AscendRange(0, 1<<62, func(k, v uint64) bool { ok = append(ok, k); return true })
			s.AscendRange(0, 1<<62, func(k, v uint64) bool { sk = append(sk, k); return true })
			if len(ok) != len(sk) {
				t.Fatalf("step %d: scan lengths %d != %d", i, len(ok), len(sk))
			}
			for j := range ok {
				if ok[j] != sk[j] {
					t.Fatalf("step %d: scans diverge at %d: %d != %d", i, j, ok[j], sk[j])
				}
			}
		}
	}
	// Snapshots, still without quiescing: byte-identical streams.
	var ob, sb bytes.Buffer
	if err := fitingtree.EncodeOptimistic(o, &ob); err != nil {
		t.Fatal(err)
	}
	if err := fitingtree.EncodeSharded(s, &sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ob.Bytes(), sb.Bytes()) {
		t.Fatalf("sharded snapshot (%d bytes) differs from unsharded (%d bytes) under async flushing",
			sb.Len(), ob.Len())
	}
	// And a sharded encode mid-flush matches its own quiesced encode.
	s.SyncFlush()
	var sq bytes.Buffer
	if err := fitingtree.EncodeSharded(s, &sq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), sq.Bytes()) {
		t.Fatal("sharded mid-flush encode differs from quiesced encode")
	}
	o.Close()
	s.Close()
	if o.Len() != s.Len() {
		t.Fatalf("Len diverged after drain: %d != %d", o.Len(), s.Len())
	}
}

// TestShardedLookupBatchParallel exercises large batches spanning several
// shards: results must agree element-wise with point lookups, in random,
// presorted, and reversed probe orders, and stay consistent while writers
// churn the shards concurrently (run with -race).
func TestShardedLookupBatchParallel(t *testing.T) {
	base := make([]uint64, 100_000)
	for i := range base {
		base[i] = uint64(i) * 2
	}
	tr, err := fitingtree.BulkLoad(base, append([]uint64(nil), base...), fitingtree.Options{Error: 32, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fitingtree.NewSharded(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() < 2 {
		t.Fatalf("need several shards to fan out, got %d", s.Shards())
	}
	s.SetAsyncFlush(true)
	rng := rand.New(rand.NewSource(17))
	// A quiet probe range writers never touch, so batch/point agreement
	// is exact even mid-churn; probes mix hits and misses.
	probes := make([]uint64, 8192)
	for i := range probes {
		probes[i] = uint64(rng.Intn(100_000))
	}
	sorted := append([]uint64(nil), probes...)
	sortU64(sorted)
	reversed := make([]uint64, len(sorted))
	for i := range sorted {
		reversed[len(sorted)-1-i] = sorted[i]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Insert(uint64(120_000+r.Intn(80_000)), 1) // outside the probe range
			}
		}(w)
	}
	for round, batch := range [][]uint64{probes, sorted, reversed} {
		vals, found := s.LookupBatch(batch)
		for i, k := range batch {
			wv, wok := s.Lookup(k)
			if found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("order %d: LookupBatch(%d) = (%d,%v), Lookup = (%d,%v)",
					round, k, vals[i], found[i], wv, wok)
			}
			if want := k%2 == 0 && k < 200_000; found[i] != want {
				t.Fatalf("order %d: found[%d]=%v for key %d, want %v", round, i, found[i], k, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	s.Close()
}

// TestShardedAckedWritesVisibleAsync pins the one-load read against the
// flush pipeline and the rebalance: with background flushers publishing
// on shards right up to eager rebalances, a reader must find every key
// whose insert returned before the read began. A rebalance quiesces the
// outgoing shards first, so no retired-shard worker publishes a write
// the new set lacks.
func TestShardedAckedWritesVisibleAsync(t *testing.T) {
	s, err := fitingtree.NewSharded(mustTree(t, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFlushEvery(8) // frequent freezes keep workers in flight
	s.SetAsyncFlush(true)
	s.SetRebalanceFactor(1.5) // rebalance eagerly
	// The i-th write of a skewed writer: it triggers growth and skew
	// rebalances while the per-shard flushers churn.
	key := func(i int) uint64 {
		if i > 6000 {
			return uint64(i) // shift the distribution to force re-fencing
		}
		return uint64(i % 3000 * 7)
	}
	var acked atomic.Int64 // writes whose Insert has returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := acked.Load()
				if n == 0 {
					continue
				}
				k := key(rng.Intn(int(n)))
				if v, ok := s.Lookup(k); !ok || v != k {
					t.Errorf("Lookup(%d) = %d,%v after its insert was acknowledged", k, v, ok)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 12_000; i++ {
		k := key(i)
		s.Insert(k, k)
		acked.Store(int64(i + 1))
	}
	close(stop)
	wg.Wait()
	s.Close()
}
