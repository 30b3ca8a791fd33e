package fitingtree_test

// Satellite of the frozen-layer merge ladder: a randomized model test
// running a live background compactor. The white-box pump harness
// (ladder_test.go) pins exact value sequences with a hand-driven
// scheduler; this black-box variant races a real worker — pushes,
// size-tiered compactions and bottom folds interleave freely with the
// writer — so it checks the flush-timing-invariant contract (as
// TestOptimisticModelRandomizedAsync does): Delete outcomes, total and
// per-key live counts, globally ordered scans, batch found flags, and that
// every surviving value id was genuinely stored under its key. Distinct
// value ids make any tombstone miscount or duplicate reordering across
// compactions observable.

import (
	"fmt"
	"math/rand"
	"testing"

	"fitingtree"
)

// modelSeeds is the second dimension of the randomized models in this
// package: each model runs on the seed it has always run and again on a
// shifted one, so the one window search faces a second op history. The
// labels are the ones the dimension carried while it selected a router kind
// and then a window search; the test floor tracks subtests by name, so they
// stay.
var modelSeeds = []struct {
	name  string
	shift int64
}{{"btree", 0}, {"implicit", 1 << 20}}

// TestLadderModelRandomizedDepths runs the model on eight op streams. The
// depth labels only offset the seed and keep the subtest names stable.
func TestLadderModelRandomizedDepths(t *testing.T) {
	for _, ms := range modelSeeds {
		for _, depth := range []int{1, 2, 4, 8} {
			for _, async := range []bool{false, true} {
				mode := "inline"
				if async {
					mode = "async"
				}
				ms, depth, async := ms, depth, async
				t.Run(fmt.Sprintf("%s/depth=%d/%s", ms.name, depth, mode), func(t *testing.T) {
					testLadderModel(t, ms.shift+int64(depth), async)
				})
			}
		}
	}
}

func testLadderModel(t *testing.T, seed int64, async bool) {
	for _, flushAt := range []int{2, 13} {
		rng := rand.New(rand.NewSource(int64(flushAt)*977 + seed))
		nextVal := uint64(1 << 32)
		base := make([]uint64, 1200)
		baseVals := make([]uint64, 1200)
		for i := range base {
			base[i] = uint64(rng.Intn(250) * 6) // heavy duplication
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
		o.SetAsyncFlush(async)
		o.SetFlushEvery(flushAt)
		m := newOptModel(base, baseVals, flushAt)

		check := func(phase int) {
			t.Helper()
			if o.Len() != m.len() {
				t.Fatalf("flushAt=%d phase %d: Len %d, model %d", flushAt, phase, o.Len(), m.len())
			}
			s := o.Stats()
			if s.FrozenLayers > fitingtree.MaxFrozenLayers || len(s.LayerPending) != s.FrozenLayers {
				t.Fatalf("flushAt=%d phase %d: Stats reports %d layers (pending %v), depth cap %d",
					flushAt, phase, s.FrozenLayers, s.LayerPending, fitingtree.MaxFrozenLayers)
			}
			var wantK []uint64
			for _, k := range m.liveKeys() {
				for range m.each(k) {
					wantK = append(wantK, k)
				}
			}
			i := 0
			o.AscendRange(0, 1<<62, func(k, v uint64) bool {
				if i >= len(wantK) || k != wantK[i] {
					t.Fatalf("flushAt=%d phase %d: scan[%d] key = %d, model %d", flushAt, phase, i, k, wantK[i])
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
			probe := make([]uint64, 0, 96)
			for j := 0; j < 96; j++ {
				probe = append(probe, uint64(rng.Intn(1800)))
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
		for phase := 0; phase < 3; phase++ {
			for i := 0; i < 400; i++ {
				k := uint64(rng.Intn(1800))
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
		// Drain the whole ladder and re-verify: folding every layer must not
		// change any flush-invariant observation.
		o.Close()
		check(3)
		if s := o.Stats(); s.FrozenLayers != 0 {
			t.Fatalf("flushAt=%d: Close left %d frozen layers", flushAt, s.FrozenLayers)
		}
	}
}
