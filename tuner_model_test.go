package fitingtree

// Satellites of the self-tuning loop. The randomized model test pins the
// contract that makes tuning safe to enable blindly: retuning, per-region
// rebuilds, and under-full chunk absorption are layout-only — a tuned
// facade and an untuned reference fed the identical op stream stay
// value-id-for-value-id equivalent under every router and ladder depth.
// The race stress drives Retune against concurrent readers and
// writers (the CI -race step runs it). The durable test crashes a tuned
// store and asserts recovery reproduces the persisted per-page error
// bounds exactly.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

func TestTunerModelEquivalence(t *testing.T) {
	for _, rk := range searchKinds {
		for _, depth := range []int{1, 4} {
			rk, depth := rk, depth
			t.Run(fmt.Sprintf("%s/depth=%d", rk.name, depth), func(t *testing.T) {
				testTunerEquivalence(t, rk.search, depth)
			})
		}
	}
}

func testTunerEquivalence(t *testing.T, search SearchStrategy, depth int) {
	rng := rand.New(rand.NewSource(int64(depth)*7919 + int64(search)))
	nextVal := uint64(1 << 32)
	base := make([]uint64, 3000)
	baseVals := make([]uint64, 3000)
	for i := range base {
		base[i] = uint64(rng.Intn(600) * 5) // duplicates and gaps
	}
	slices.Sort(base)
	for i := range baseVals {
		baseVals[i] = nextVal
		nextVal++
	}
	build := func() *Optimistic[uint64, uint64] {
		tr, err := BulkLoad(base, baseVals, Options{Error: 48, BufferSize: 8, Search: search})
		if err != nil {
			t.Fatal(err)
		}
		o := NewOptimistic(tr)
		o.SetAsyncFlush(false)
		o.SetMaxFrozenLayers(depth)
		o.SetFlushEvery(16)
		return o
	}
	tuned, ref := build(), build()
	tuned.SetAutoTune(true)

	check := func(phase int) {
		t.Helper()
		if tuned.Len() != ref.Len() {
			t.Fatalf("phase %d: tuned Len %d, reference %d", phase, tuned.Len(), ref.Len())
		}
		type kv struct{ k, v uint64 }
		var want []kv
		ref.AscendRange(0, 1<<62, func(k, v uint64) bool {
			want = append(want, kv{k, v})
			return true
		})
		i := 0
		tuned.AscendRange(0, 1<<62, func(k, v uint64) bool {
			if i >= len(want) || want[i] != (kv{k, v}) {
				t.Fatalf("phase %d: tuned scan[%d] = (%d,%d), reference %v", phase, i, k, v, want[i])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("phase %d: tuned scan has %d entries, reference %d", phase, i, len(want))
		}
		for j := 0; j < 64; j++ {
			k := uint64(rng.Intn(3200))
			tn, rn := 0, 0
			tuned.Each(k, func(uint64) bool { tn++; return true })
			ref.Each(k, func(uint64) bool { rn++; return true })
			if tn != rn {
				t.Fatalf("phase %d: Each(%d) count %d, reference %d", phase, k, tn, rn)
			}
		}
		for _, o := range []*Optimistic[uint64, uint64]{tuned, ref} {
			if err := o.state.Load().tree.CheckInvariants(); err != nil {
				t.Fatalf("phase %d: invariants: %v", phase, err)
			}
		}
	}

	check(-1)
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 600; i++ {
			k := uint64(rng.Intn(3200))
			switch {
			case rng.Intn(3) == 0:
				got, want := tuned.Delete(k), ref.Delete(k)
				if got != want {
					t.Fatalf("phase %d: Delete(%d) tuned %v, reference %v", phase, k, got, want)
				}
			default:
				v := nextVal
				nextVal++
				tuned.Insert(k, v)
				ref.Insert(k, v)
			}
		}
		// Retarget aggressively between phases: new plans must only ever
		// change layout, never content.
		tuned.SyncFlush()
		ref.SyncFlush()
		tuned.Retune()
		check(phase)
	}
	if regions := tuned.Stats().Regions; len(regions) == 0 {
		t.Fatal("tuned facade never published a region plan")
	}
	if regions := ref.Stats().Regions; len(regions) != 0 {
		t.Fatalf("untuned reference grew a region plan: %v", regions)
	}
}

// TestTunerRaceStress races Retune against live readers and
// a writer; run under -race it pins that tuning state is safely shared
// across publications. Content is verified at the end against the
// writer's own accounting.
func TestTunerRaceStress(t *testing.T) {
	base := make([]uint64, 20_000)
	vals := make([]uint64, len(base))
	for i := range base {
		base[i] = uint64(i) * 8
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(base, vals, Options{Error: 64, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAutoTune(true)
	o.SetFlushEvery(64)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := uint64(rng.Intn(len(base)*8 + 100))
				o.Lookup(k)
				if rng.Intn(64) == 0 {
					n := 0
					o.AscendRange(k, k+512, func(uint64, uint64) bool { n++; return n < 200 })
				}
			}
		}(int64(r) + 1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			o.Retune()
			time.Sleep(time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(99))
	inserted, deleted := 0, 0
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 256; i++ {
			k := uint64(rng.Intn(len(base) * 8))
			if rng.Intn(4) == 0 {
				if o.Delete(k) {
					deleted++
				}
			} else {
				o.Insert(k, k)
				inserted++
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	o.Close()
	if got, want := o.Len(), len(base)+inserted-deleted; got != want {
		t.Fatalf("after stress Len = %d, want %d", got, want)
	}
	if err := o.state.Load().tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashPreservesTunedLayout checkpoints a self-tuned store,
// crashes away everything unsynced, and asserts recovery rebuilds the
// identical layout: the per-page error bounds the checkpoint persisted,
// byte-identical index accounting, and intact invariants (which verify
// every page against its own recorded bound, not the global one).
func TestDurableCrashPreservesTunedLayout(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	opts := Options{Error: 128, BufferSize: 16}
	d, err := OpenDurable[int, int](mem, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetFlushEvery(128)
	d.SetAutoTune(true)
	rng := rand.New(rand.NewSource(7))
	k := 0
	for i := 0; i < 30_000; i++ {
		// Heavy-tailed steps keep the data rough: near-arithmetic keys
		// collapse into a handful of giant segments, leaving too few pages
		// for the tuner's regions (or this test's mixed-bound assertion)
		// to mean anything.
		k += 1 + 1<<uint(rng.Intn(11))
		if err := d.Insert(k, i); err != nil {
			t.Fatal(err)
		}
	}
	// Skew the sampled load onto the lower half, retarget, and rebuild
	// under the new plan so pages carry mixed bounds.
	for i := 0; i < 60_000; i++ {
		d.Lookup(rng.Intn(k / 2))
	}
	d.SyncFlush()
	d.set.Load().shards[0].Retune()
	for i := 0; i < 4_000; i++ {
		if err := d.Insert(rng.Intn(k), -i); err != nil {
			t.Fatal(err)
		}
	}
	d.SyncFlush()
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantBounds := shardTrees(d)[0].PageErrorBounds()
	distinct := map[int]bool{}
	for _, b := range wantBounds {
		distinct[b] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("tuned store carries a single bound %v; the scenario proves nothing", distinct)
	}
	wantStats := d.Stats()
	wantPairs := dump(d)

	mem.Crash()
	rec, err := OpenDurable[int, int](mem, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	gotBounds := shardTrees(rec)[0].PageErrorBounds()
	if len(gotBounds) != len(wantBounds) {
		t.Fatalf("recovered %d pages, want %d", len(gotBounds), len(wantBounds))
	}
	for i := range wantBounds {
		if gotBounds[i] != wantBounds[i] {
			t.Fatalf("page %d recovered with bound %d, checkpoint persisted %d",
				i, gotBounds[i], wantBounds[i])
		}
	}
	// The layout is the pages: their count, their bounds (above) and the
	// per-segment share of the index size. The start arrays' share is left
	// out on purpose — recovery cuts chunks afresh, so their count need
	// not match the pre-crash chain's.
	gotStats := rec.Stats()
	segBytes := func(s Stats) int64 { return s.IndexSize - s.Inner.SizeBytes }
	if gotStats.Pages != wantStats.Pages || segBytes(gotStats) != segBytes(wantStats) {
		t.Fatalf("recovered layout %d pages/%dB of segments, want %d pages/%dB",
			gotStats.Pages, segBytes(gotStats), wantStats.Pages, segBytes(wantStats))
	}
	if err := shardTrees(rec)[0].CheckInvariants(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
	if !pairsEqual(dump(rec), wantPairs) {
		t.Fatal("recovered content differs from the checkpointed state")
	}
}
