package fitingtree_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fitingtree"
)

// buildSharded bulk-loads a tree with val == key and splits it into a
// sharded facade with the given target shard count and flush threshold.
func buildSharded(t testing.TB, keys []uint64, shards, flushAt int) *fitingtree.Sharded[uint64, uint64] {
	t.Helper()
	tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...), fitingtree.Options{Error: 32, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fitingtree.NewSharded(tr, shards)
	if err != nil {
		t.Fatal(err)
	}
	if flushAt > 0 {
		s.SetFlushEvery(flushAt)
	}
	return s
}

func seqKeys(n int, stride uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * stride
	}
	return keys
}

func TestShardedBasic(t *testing.T) {
	keys := seqKeys(4000, 3)
	s := buildSharded(t, keys, 4, 64)

	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	if b := s.Bounds(); len(b) != s.Shards()-1 {
		t.Fatalf("Bounds len %d, shards %d", len(b), s.Shards())
	}
	sizes := s.ShardSizes()
	total := 0
	for i, sz := range sizes {
		if sz == 0 {
			t.Fatalf("shard %d empty at construction", i)
		}
		total += sz
	}
	if total != len(keys) || s.Len() != len(keys) {
		t.Fatalf("sizes sum %d, Len %d, want %d", total, s.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := s.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
		}
	}
	if s.Contains(1) {
		t.Fatal("Contains(1) on multiples of 3")
	}

	// Writes across every shard, crossing flush boundaries.
	for i := 0; i < 2000; i++ {
		s.Insert(uint64(i*6+1), uint64(i*6+1))
	}
	for i := 0; i < 1000; i++ {
		if !s.Delete(uint64(i * 3 * 4)) {
			t.Fatalf("Delete(%d) missed", i*12)
		}
	}
	if s.Delete(2) {
		t.Fatal("Delete(2) of absent key succeeded")
	}
	want := len(keys) + 2000 - 1000
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	for i := 0; i < 2000; i++ {
		k := uint64(i*6 + 1)
		if v, ok := s.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) after churn = %d, %v", k, v, ok)
		}
	}
	st := s.Stats()
	if st.Elements != want {
		t.Fatalf("Stats.Elements = %d, want %d", st.Elements, want)
	}
	if st.Pages == 0 || st.IndexSize == 0 {
		t.Fatalf("degenerate aggregate stats: %+v", st)
	}
}

func TestShardedShardCountClamps(t *testing.T) {
	if _, err := fitingtree.NewSharded(mustTree(t, seqKeys(100, 1)), 0); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	// Tiny data cannot support many shards; the facade clamps rather than
	// creating empty ranges.
	s, err := fitingtree.NewSharded(mustTree(t, seqKeys(10, 1)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got < 1 || got > 10 {
		t.Fatalf("Shards = %d for 10 elements", got)
	}
	// Empty start: one shard, everything still works.
	s, err = fitingtree.NewSharded(mustTree(t, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 1 || s.Len() != 0 {
		t.Fatalf("empty facade: shards %d len %d", s.Shards(), s.Len())
	}
	for i := 0; i < 100; i++ {
		s.Insert(uint64(i), uint64(i))
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func mustTree(t *testing.T, keys []uint64) *fitingtree.Tree[uint64, uint64] {
	t.Helper()
	tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...), fitingtree.Options{Error: 32, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestShardedMatchesOptimistic drives identical workloads (val == key, so
// flush-timing differences cannot surface) through a sharded and an
// unsharded facade and requires byte-identical scans, lookups, batch
// lookups, and snapshots — the cross-shard stitch must be indistinguishable
// from a single Optimistic.
func TestShardedMatchesOptimistic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := make([]uint64, 6000)
	for i := range base {
		base[i] = uint64(rng.Intn(3000) * 4) // duplicates galore
	}
	sortU64(base)
	s := buildSharded(t, base, 5, 32)
	o := buildOpt(t, base, 77) // deliberately different flush cadence

	for round := 0; round < 3; round++ {
		for i := 0; i < 2000; i++ {
			k := uint64(rng.Intn(13000))
			switch rng.Intn(4) {
			case 0:
				if s.Delete(k) != o.Delete(k) {
					t.Fatalf("Delete(%d) outcome diverged", k)
				}
			default:
				s.Insert(k, k)
				o.Insert(k, k)
			}
		}
		if s.Len() != o.Len() {
			t.Fatalf("Len %d != %d", s.Len(), o.Len())
		}

		// Full-range and boundary-crossing scans must stitch identically.
		ranges := [][2]uint64{{0, 1 << 62}}
		for _, b := range s.Bounds() {
			lo := uint64(0)
			if b > 100 {
				lo = b - 100
			}
			ranges = append(ranges, [2]uint64{lo, b + 100})
		}
		for _, r := range ranges {
			var got, want [][2]uint64
			s.AscendRange(r[0], r[1], func(k, v uint64) bool {
				got = append(got, [2]uint64{k, v})
				return true
			})
			o.AscendRange(r[0], r[1], func(k, v uint64) bool {
				want = append(want, [2]uint64{k, v})
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("range [%d,%d]: %d elements vs %d", r[0], r[1], len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("range [%d,%d] diverges at %d: %v vs %v", r[0], r[1], i, got[i], want[i])
				}
			}
		}

		// Early stop crossing a shard boundary.
		if len(s.Bounds()) > 0 {
			b := s.Bounds()[0]
			lo := uint64(0)
			if b > 200 {
				lo = b - 200
			}
			var got, want []uint64
			n := 0
			s.AscendRange(lo, 1<<62, func(k, v uint64) bool {
				got = append(got, k)
				n++
				return n < 50
			})
			n = 0
			o.AscendRange(lo, 1<<62, func(k, v uint64) bool {
				want = append(want, k)
				n++
				return n < 50
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("early-stop stitch diverged:\n%v\n%v", got, want)
			}
		}

		// Point reads, Each, and batches agree.
		probe := make([]uint64, 512)
		for i := range probe {
			probe[i] = uint64(rng.Intn(13000))
		}
		sv, sf := s.LookupBatch(probe)
		ov, of := o.LookupBatch(probe)
		for i, k := range probe {
			if sf[i] != of[i] || (sf[i] && sv[i] != ov[i]) {
				t.Fatalf("LookupBatch(%d) = (%d,%v) vs (%d,%v)", k, sv[i], sf[i], ov[i], of[i])
			}
			gv, gok := s.Lookup(k)
			wv, wok := o.Lookup(k)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("Lookup(%d) = (%d,%v) vs (%d,%v)", k, gv, gok, wv, wok)
			}
			var gn, wn int
			s.Each(k, func(uint64) bool { gn++; return true })
			o.Each(k, func(uint64) bool { wn++; return true })
			if gn != wn {
				t.Fatalf("Each(%d) count %d vs %d", k, gn, wn)
			}
		}

		// Snapshots are byte-identical: the sharded stream is
		// indistinguishable from the unsharded one.
		var sb, ob bytes.Buffer
		if err := fitingtree.EncodeSharded(s, &sb); err != nil {
			t.Fatal(err)
		}
		if err := fitingtree.EncodeOptimistic(o, &ob); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), ob.Bytes()) {
			t.Fatalf("round %d: EncodeSharded and EncodeOptimistic differ (%d vs %d bytes)",
				round, sb.Len(), ob.Len())
		}
	}
}

func TestShardedDuplicatesAtBoundary(t *testing.T) {
	// Plant a heavy duplicate run and verify it never splits across
	// shards: all matches come back from one Each, and deletes drain it
	// with Optimistic's ordering.
	var keys []uint64
	for i := 0; i < 2000; i++ {
		keys = append(keys, uint64(i*2))
	}
	dup := uint64(1999) // between base keys
	for i := 0; i < 64; i++ {
		keys = append(keys, dup)
	}
	sortU64(keys)
	s := buildSharded(t, keys, 6, 16)

	count := func() int {
		n := 0
		s.Each(dup, func(v uint64) bool {
			if v != dup {
				t.Fatalf("Each(%d) yielded %d", dup, v)
			}
			n++
			return true
		})
		return n
	}
	if got := count(); got != 64 {
		t.Fatalf("count = %d, want 64", got)
	}
	s.Insert(dup, dup)
	for want := 64; want >= 0; want-- {
		if !s.Delete(dup) {
			t.Fatalf("Delete missed at multiplicity %d", want+1)
		}
		if got := count(); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}
	}
	if s.Delete(dup) {
		t.Fatal("Delete on exhausted key succeeded")
	}
}

func TestShardedRebalance(t *testing.T) {
	keys := seqKeys(4000, 10)
	s := buildSharded(t, keys, 4, 32)
	s.SetRebalanceFactor(2)

	// Hammer one narrow range: the owning shard balloons until the skew
	// check re-partitions.
	hot := keys[len(keys)-1] / 8 // inside shard 0
	for i := 0; i < 12000; i++ {
		s.Insert(hot+uint64(i%97), hot+uint64(i%97))
	}
	sizes := s.ShardSizes()
	total, maxSize := 0, 0
	for _, sz := range sizes {
		total += sz
		if sz > maxSize {
			maxSize = sz
		}
	}
	if total != s.Len() || total != 16000 {
		t.Fatalf("sizes sum %d, Len %d, want 16000", total, s.Len())
	}
	mean := float64(total) / float64(len(sizes))
	// Without rebalancing, the hot shard would hold 12000+1000 of 16000 —
	// 3.25× the mean of a 4-way split. The factor-2 trigger must have
	// fired and spread the load.
	if float64(maxSize) > 2.5*mean {
		t.Fatalf("rebalance never fired: sizes %v", sizes)
	}

	// Nothing was lost or duplicated.
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("base key %d lost in rebalance", k)
		}
	}
	n := 0
	s.AscendRange(0, 1<<62, func(k, v uint64) bool {
		if v != k {
			t.Fatalf("scan yielded (%d,%d)", k, v)
		}
		n++
		return true
	})
	if n != 16000 {
		t.Fatalf("scan visited %d, want 16000", n)
	}

	// A disabled factor never rebalances.
	s2 := buildSharded(t, keys, 4, 32)
	s2.SetRebalanceFactor(math.Inf(1))
	b0 := fmt.Sprint(s2.Bounds())
	for i := 0; i < 12000; i++ {
		s2.Insert(hot+uint64(i%97), hot+uint64(i%97))
	}
	if got := fmt.Sprint(s2.Bounds()); got != b0 {
		t.Fatalf("bounds moved with rebalancing disabled: %s -> %s", b0, got)
	}
}

func TestShardedGrowsFromEmpty(t *testing.T) {
	s, err := fitingtree.NewSharded(mustTree(t, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFlushEvery(16)
	if s.Shards() != 1 {
		t.Fatalf("empty facade starts with %d shards", s.Shards())
	}
	for i := 0; i < 5000; i++ {
		s.Insert(uint64(i*7), uint64(i*7))
	}
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards = %d after growth, want 4", got)
	}
	for i := 0; i < 5000; i++ {
		if v, ok := s.Lookup(uint64(i * 7)); !ok || v != uint64(i*7) {
			t.Fatalf("Lookup(%d) = %d,%v after growth", i*7, v, ok)
		}
	}
}

func TestShardedEncodeDecode(t *testing.T) {
	keys := seqKeys(3000, 5)
	s := buildSharded(t, keys, 4, 16)
	for i := 0; i < 500; i++ {
		s.Insert(uint64(i*30+2), uint64(i*30+2)) // leaves pending deltas too
	}
	s.Delete(0)

	var buf bytes.Buffer
	if err := fitingtree.EncodeSharded(s, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Decode accepts the stream, as a tree and under both facades.
	back, err := fitingtree.Decode[uint64, uint64](bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := fitingtree.NewSharded(back, 4)
	if err != nil {
		t.Fatal(err)
	}
	back, err = fitingtree.Decode[uint64, uint64](bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	o2 := fitingtree.NewOptimistic(back)
	t2, err := fitingtree.Decode[uint64, uint64](bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	want := s.Len()
	if s2.Len() != want || o2.Len() != want || t2.Len() != want {
		t.Fatalf("decoded lens %d/%d/%d, want %d", s2.Len(), o2.Len(), t2.Len(), want)
	}
	var a, b []uint64
	s.AscendRange(0, 1<<62, func(k, v uint64) bool { a = append(a, k, v); return true })
	s2.AscendRange(0, 1<<62, func(k, v uint64) bool { b = append(b, k, v); return true })
	if len(a) != len(b) {
		t.Fatalf("round-trip scan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip diverges at %d", i)
		}
	}

	// And a plain Encode stream re-partitions into a sharded facade.
	var tb bytes.Buffer
	if err := fitingtree.Encode(mustTree(t, keys), &tb); err != nil {
		t.Fatal(err)
	}
	back, err = fitingtree.Decode[uint64, uint64](&tb)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := fitingtree.NewSharded(back, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != len(keys) {
		t.Fatalf("NewSharded of a decoded Encode stream: Len %d, want %d", s3.Len(), len(keys))
	}
}

func TestShardedNaNPanics(t *testing.T) {
	tr, err := fitingtree.BulkLoad([]float64{1, 2, 3}, []int{1, 2, 3}, fitingtree.Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fitingtree.NewSharded(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	expectPanic(t, "Sharded.Insert", func() { s.Insert(math.NaN(), 9) })
	expectPanic(t, "Sharded.Delete", func() { s.Delete(math.NaN()) })
	// Reads must stay safe (and simply miss) on NaN.
	if _, ok := s.Lookup(math.NaN()); ok {
		t.Fatal("Lookup(NaN) found something")
	}
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestShardedModelRandomized drives interleaved Insert/Delete (val == key)
// through a sharded facade against a multiset model, exercising per-shard
// flushes and rebalances, and checks counts, membership, and global scan
// order after every phase.
func TestShardedModelRandomized(t *testing.T) {
	for _, cfg := range []struct {
		shards, flushAt int
		factor          float64
	}{
		{1, 1, 3},
		{3, 1, 2},
		{4, 7, 3},
		{5, 1 << 20, 2},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.shards*1000 + cfg.flushAt)))
		base := make([]uint64, 3000)
		for i := range base {
			base[i] = uint64(rng.Intn(800) * 5)
		}
		sortU64(base)
		s := buildSharded(t, base, cfg.shards, cfg.flushAt)
		s.SetRebalanceFactor(cfg.factor)

		model := map[uint64]int{}
		for _, k := range base {
			model[k]++
		}
		total := len(base)

		for phase := 0; phase < 5; phase++ {
			for i := 0; i < 800; i++ {
				k := uint64(rng.Intn(4200))
				if rng.Intn(3) == 0 {
					got := s.Delete(k)
					want := model[k] > 0
					if got != want {
						t.Fatalf("cfg=%+v Delete(%d) = %v, model %v", cfg, k, got, want)
					}
					if want {
						model[k]--
						total--
					}
				} else {
					s.Insert(k, k)
					model[k]++
					total++
				}
			}
			if s.Len() != total {
				t.Fatalf("cfg=%+v phase %d: Len %d, model %d", cfg, phase, s.Len(), total)
			}
			// Global scan: key sequence must be the model's sorted multiset.
			var got []uint64
			s.AscendRange(0, 1<<62, func(k, v uint64) bool {
				if v != k {
					t.Fatalf("cfg=%+v scan yielded (%d,%d)", cfg, k, v)
				}
				got = append(got, k)
				return true
			})
			if len(got) != total {
				t.Fatalf("cfg=%+v phase %d: scan %d, model %d", cfg, phase, len(got), total)
			}
			seen := map[uint64]int{}
			for i, k := range got {
				if i > 0 && got[i-1] > k {
					t.Fatalf("cfg=%+v: scan out of order at %d", cfg, i)
				}
				seen[k]++
			}
			for k, n := range model {
				if n != seen[k] {
					t.Fatalf("cfg=%+v phase %d: key %d count %d, model %d", cfg, phase, k, seen[k], n)
				}
			}
			// Sampled point ops through every read path.
			probe := make([]uint64, 300)
			for i := range probe {
				probe[i] = uint64(rng.Intn(4200))
			}
			bv, bf := s.LookupBatch(probe)
			for i, k := range probe {
				if want := model[k] > 0; bf[i] != want || s.Contains(k) != want {
					t.Fatalf("cfg=%+v: membership of %d: batch %v contains %v model %v",
						cfg, k, bf[i], s.Contains(k), want)
				}
				if bf[i] && bv[i] != k {
					t.Fatalf("cfg=%+v: batch value for %d is %d", cfg, k, bv[i])
				}
				n := 0
				s.Each(k, func(uint64) bool { n++; return true })
				if n != model[k] {
					t.Fatalf("cfg=%+v: Each(%d) count %d, model %d", cfg, k, n, model[k])
				}
			}
		}
	}
}

// TestShardedStress exercises concurrent writers on distinct key ranges,
// latch-free readers, snapshots, flush-threshold changes, and
// skew-triggered rebalances under the race detector, then verifies the
// final contents.
func TestShardedStress(t *testing.T) {
	const (
		writers   = 4
		perWriter = 3000
		span      = uint64(1 << 20)
	)
	base := make([]uint64, 8000)
	for i := range base {
		base[i] = uint64(i) * (span * writers / 8000)
	}
	s := buildSharded(t, base, writers, 64)
	s.SetRebalanceFactor(2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: point, range, and batch, constantly.
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
				k := uint64(rng.Int63n(int64(span * writers)))
				s.Lookup(k)
				s.Contains(k)
				if rng.Intn(10) == 0 {
					n := 0
					s.AscendRange(k, k+span/4, func(uint64, uint64) bool {
						n++
						return n < 200
					})
				}
				if rng.Intn(10) == 0 {
					probe := make([]uint64, 64)
					for i := range probe {
						probe[i] = uint64(rng.Int63n(int64(span * writers)))
					}
					s.LookupBatch(probe)
				}
			}
		}(int64(r))
	}
	// A snapshotter and a flush-threshold twiddler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				var buf bytes.Buffer
				if err := fitingtree.EncodeSharded(s, &buf); err != nil {
					t.Error(err)
					return
				}
			}
			s.SetFlushEvery(16 + i%64)
		}
	}()
	// Writers: each owns a key range; writer 0 is deliberately hot.
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			lo := span * uint64(w)
			for i := 0; i < perWriter; i++ {
				k := lo + uint64(rng.Int63n(int64(span)))
				k = k*2 + 1 // odd: never collides with base keys
				s.Insert(k, k)
				if i%5 == 0 {
					s.Delete(k)
					s.Insert(k, k)
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	want := len(base) + writers*perWriter
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	n := 0
	last := uint64(0)
	s.AscendRange(0, 1<<63, func(k, v uint64) bool {
		if k < last {
			t.Fatalf("scan out of order: %d after %d", k, last)
		}
		last = k
		if v != k {
			t.Fatalf("scan yielded (%d,%d)", k, v)
		}
		n++
		return true
	})
	if n != want {
		t.Fatalf("scan visited %d, want %d", n, want)
	}
	for _, k := range base {
		if !s.Contains(k) {
			t.Fatalf("base key %d lost", k)
		}
	}
}

// BenchmarkShardWrite measures aggregate insert throughput as writer
// goroutines grow, for a single Optimistic (every writer funnels through
// one mutex) against a Sharded facade with one shard per writer (writers
// on disjoint key ranges take disjoint locks). On a multi-core runner the
// sharded curve scales with writers; on one vCPU both read ~1×.
func BenchmarkShardWrite(b *testing.B) {
	const domain = uint64(1) << 40
	base := make([]uint64, 100_000)
	for i := range base {
		base[i] = uint64(i) * (domain / 100_000)
	}
	for _, writers := range []int{1, 2, 4} {
		genInserts := func(bn int) [][]uint64 {
			per := (bn + writers - 1) / writers
			ins := make([][]uint64, writers)
			span := domain / uint64(writers)
			for w := range ins {
				rng := rand.New(rand.NewSource(int64(w + 1)))
				ins[w] = make([]uint64, per)
				lo := span * uint64(w)
				for i := range ins[w] {
					ins[w][i] = lo + uint64(rng.Int63n(int64(span))) | 1
				}
			}
			return ins
		}
		run := func(b *testing.B, insert func(k, v uint64)) {
			ins := genInserts(b.N)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(keys []uint64) {
					defer wg.Done()
					for _, k := range keys {
						insert(k, k)
					}
				}(ins[w])
			}
			wg.Wait()
		}
		b.Run(fmt.Sprintf("optimistic/writers=%d", writers), func(b *testing.B) {
			o := buildOptBench(b, base)
			run(b, o.Insert)
		})
		b.Run(fmt.Sprintf("sharded/writers=%d", writers), func(b *testing.B) {
			s := buildSharded(b, base, writers, 0) // the tree's own threshold, as above
			run(b, s.Insert)
		})
	}
}

func buildOptBench(b *testing.B, keys []uint64) *fitingtree.Optimistic[uint64, uint64] {
	b.Helper()
	tr, err := fitingtree.BulkLoad(keys, append([]uint64(nil), keys...), fitingtree.Options{Error: 32, BufferSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	return fitingtree.NewOptimistic(tr)
}
