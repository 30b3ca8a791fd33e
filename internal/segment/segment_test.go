package segment

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortedUint64 produces n sorted keys from a mixture of gap distributions
// so segments of many shapes arise.
func sortedUint64(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	cur := uint64(rng.Intn(1000))
	for i := range keys {
		keys[i] = cur
		switch rng.Intn(4) {
		case 0:
			// duplicate run
		case 1:
			cur += 1
		case 2:
			cur += uint64(rng.Intn(10))
		default:
			cur += uint64(rng.Intn(10000))
		}
	}
	return keys
}

func TestShrinkingConeEmptyAndTiny(t *testing.T) {
	if segs := ShrinkingCone([]uint64{}, 10); segs != nil {
		t.Fatalf("empty input produced %d segments", len(segs))
	}
	segs := ShrinkingCone([]uint64{42}, 10)
	if len(segs) != 1 || segs[0].Count != 1 || segs[0].Start != 42 {
		t.Fatalf("single key: %+v", segs)
	}
	if err := Verify([]uint64{42}, segs, 10); err != nil {
		t.Fatal(err)
	}
	segs = ShrinkingCone([]uint64{1, 2}, 10)
	if len(segs) != 1 {
		t.Fatalf("two keys should form one segment, got %d", len(segs))
	}
}

// TestShrinkingConeHugeKeysExactStart: start keys above 2^53 come back
// exactly — they are taken from the input, not reconstructed from the cone's
// float origin.
func TestShrinkingConeHugeKeysExactStart(t *testing.T) {
	base := uint64(1)<<60 + 12345
	keys := []uint64{base, base + 1, base + 2, base + 3, base + 1<<40 + 7, base + 1<<40 + 8}
	segs := ShrinkingCone(keys, 2)
	if len(segs) < 2 || segs[0].Start != base {
		t.Fatalf("segments %+v, want at least two, the first starting at %d", segs, base)
	}
	for _, s := range segs {
		if s.Start != keys[s.StartPos] {
			t.Fatalf("segment at %d starts at %d, its first key is %d", s.StartPos, s.Start, keys[s.StartPos])
		}
	}
}

func TestShrinkingConePanicsOnBadInput(t *testing.T) {
	assertPanics(t, func() { ShrinkingCone([]uint64{1, 2}, 0) }, "error threshold 0")
	assertPanics(t, func() { ShrinkingCone([]uint64{2, 1}, 10) }, "unsorted keys")
	assertPanics(t, func() { OptimalCount([]uint64{2, 1}, 10) }, "unsorted keys (optimal)")
}

// TestShrinkingConeUnsortedAcrossParts puts unsorted pairs on and beside
// the part boundaries of a parallel pass: the panic is raised on the
// caller's goroutine, where the test recovers it, and names the first
// unsorted index, the one the serial pass names.
func TestShrinkingConeUnsortedAcrossParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 4 * minPart
	if p := Parts(n); p != 4 {
		t.Fatalf("%d keys at GOMAXPROCS 4: %d parts", n, p)
	}
	for _, bad := range [][]int{{n / 4}, {n / 2}, {n/2 + 1, n / 4}, {3 * n / 4, n/4 - 1}, {n - 1, 3*n/4 + 7}} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i) * 3
		}
		for _, b := range bad {
			keys[b] = keys[b-1] - 1
		}
		want := fmt.Sprintf("segment: keys not sorted at index %d", slices.Min(bad))
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("unsorted at %v: recovered %v, want %q", bad, r, want)
				}
			}()
			ShrinkingCone(keys, 10)
		}()
	}
}

func assertPanics(t *testing.T, fn func(), what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestLinearDataOneSegment(t *testing.T) {
	// Perfectly linear data must always be a single segment regardless of
	// the error threshold.
	keys := make([]uint64, 100_000)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	for _, e := range []int{1, 10, 100} {
		segs := ShrinkingCone(keys, e)
		if len(segs) != 1 {
			t.Fatalf("err=%d: linear data split into %d segments", e, len(segs))
		}
		if err := Verify(keys, segs, e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDuplicateRuns(t *testing.T) {
	// 1000 copies of each of 10 keys. With err=99 each duplicate run needs
	// ceil(1000/100) = 10 segments; with err=1999 everything can collapse
	// far more aggressively.
	var keys []uint64
	for k := 0; k < 10; k++ {
		for i := 0; i < 1000; i++ {
			keys = append(keys, uint64(k*1_000_000))
		}
	}
	segs := ShrinkingCone(keys, 99)
	if err := Verify(keys, segs, 99); err != nil {
		t.Fatal(err)
	}
	// Theorem 3.1: every maximal segment covers at least err+1 = 100
	// locations, so at most ceil(10000/100) = 100 segments; and duplicate
	// runs of 1000 with err 99 cannot be covered by a handful of segments.
	if len(segs) > 101 {
		t.Fatalf("err=99: got %d segments, theorem bound is 100", len(segs))
	}
	if len(segs) < 50 {
		t.Fatalf("err=99: got %d segments, expected dozens for 10x1000 duplicate runs", len(segs))
	}
	segs2 := ShrinkingCone(keys, 1999)
	if err := Verify(keys, segs2, 1999); err != nil {
		t.Fatal(err)
	}
	if len(segs2) >= len(segs) {
		t.Fatalf("larger error should not need more segments: %d vs %d", len(segs2), len(segs))
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	keys := []uint64{0, 10, 20, 30, 40}
	segs := ShrinkingCone(keys, 2)
	// Corrupt the slope badly.
	bad := append([]Segment[uint64](nil), segs...)
	bad[0].Slope = 100
	if err := Verify(keys, bad, 2); err == nil {
		t.Fatal("Verify accepted corrupted slope")
	}
	// Wrong coverage.
	if err := Verify(keys, segs[:0], 2); err == nil {
		t.Fatal("Verify accepted missing segments")
	}
	// Wrong start position.
	bad2 := append([]Segment[uint64](nil), segs...)
	bad2[0].StartPos = 1
	if err := Verify(keys, bad2, 2); err == nil {
		t.Fatal("Verify accepted wrong start position")
	}
}

func TestShrinkingConeErrorBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 100 + rng.Intn(5000)
		keys := sortedUint64(rng, n)
		for _, e := range []int{1, 2, 10, 100} {
			segs := ShrinkingCone(keys, e)
			if err := Verify(keys, segs, e); err != nil {
				t.Fatalf("trial %d err=%d: %v", trial, e, err)
			}
		}
	}
}

func TestSegmentCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		keys := sortedUint64(rng, 2000+rng.Intn(3000))
		distinct := 1
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[i-1] {
				distinct++
			}
		}
		for _, e := range []int{1, 5, 50} {
			got := len(ShrinkingCone(keys, e))
			bound := MaxSegmentsBound(distinct, len(keys), e)
			if got > bound+1 {
				t.Fatalf("trial %d err=%d: %d segments exceeds bound %d (distinct=%d n=%d)",
					trial, e, got, bound, distinct, len(keys))
			}
		}
	}
}

func TestTheorem31MaximalSegmentCoverage(t *testing.T) {
	// Every maximal segment (all but possibly the last) must cover at
	// least err+1 locations.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		keys := sortedUint64(rng, 3000)
		for _, e := range []int{1, 10, 50} {
			segs := ShrinkingCone(keys, e)
			for i := 0; i < len(segs)-1; i++ {
				if segs[i].Count < e+1 {
					t.Fatalf("trial %d err=%d: maximal segment %d covers %d < %d locations",
						trial, e, i, segs[i].Count, e+1)
				}
			}
		}
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 15; trial++ {
		keys := sortedUint64(rng, 500+rng.Intn(2000))
		for _, e := range []int{1, 5, 25} {
			greedy := len(ShrinkingCone(keys, e))
			opt := OptimalCount(keys, e)
			free := OptimalFreeSlope(keys, e)
			if opt > greedy {
				t.Fatalf("trial %d err=%d: optimal %d > greedy %d", trial, e, opt, greedy)
			}
			if free > opt {
				t.Fatalf("trial %d err=%d: free-slope optimal %d > endpoint optimal %d", trial, e, free, opt)
			}
			if opt < 1 {
				t.Fatalf("trial %d err=%d: optimal count %d", trial, e, opt)
			}
		}
	}
}

func TestOptimalSegmentsValidAndMatchCount(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		keys := sortedUint64(rng, 300+rng.Intn(1500))
		for _, e := range []int{2, 20} {
			segs := Optimal(keys, e)
			if err := Verify(keys, segs, e); err != nil {
				t.Fatalf("trial %d err=%d: %v", trial, e, err)
			}
			if len(segs) != OptimalCount(keys, e) {
				t.Fatalf("trial %d err=%d: reconstruction %d segments, count says %d",
					trial, e, len(segs), OptimalCount(keys, e))
			}
		}
	}
}

func TestOptimalOnLinearData(t *testing.T) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	if got := OptimalCount(keys, 1); got != 1 {
		t.Fatalf("linear data optimal = %d, want 1", got)
	}
}

// TestShrinkingConeNotCompetitive reproduces Appendix A.3 / Figure 14: on
// the adversarial input, greedy produces ~rounds segments while the optimal
// anchored segmentation stays constant.
func TestShrinkingConeNotCompetitive(t *testing.T) {
	const e = 100
	for _, rounds := range []int{5, 20, 50} {
		keys := Adversarial(e, rounds)
		if !sort.Float64sAreSorted(keys) {
			t.Fatal("adversarial input not sorted")
		}
		greedy := ShrinkingCone(keys, e)
		if err := Verify(keys, greedy, e); err != nil {
			t.Fatal(err)
		}
		opt := OptimalCount(keys, e)
		if len(greedy) < rounds {
			t.Fatalf("rounds=%d: greedy produced only %d segments, construction is off", rounds, len(greedy))
		}
		if opt > 4 {
			t.Fatalf("rounds=%d: optimal needs %d segments, expected O(1)", rounds, opt)
		}
		t.Logf("rounds=%d: greedy=%d optimal=%d ratio=%.1f", rounds, len(greedy), opt, float64(len(greedy))/float64(opt))
	}
}

func TestWindowContainsTruePosition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	keys := sortedUint64(rng, 4000)
	const e = 8
	segs := ShrinkingCone(keys, e)
	pos := 0
	for _, s := range segs {
		for i := 0; i < s.Count; i++ {
			lo, hi := s.Window(keys[pos+i], e)
			if i < lo || i > hi {
				t.Fatalf("true offset %d outside window [%d,%d] for key %v", i, lo, hi, keys[pos+i])
			}
		}
		pos += s.Count
	}
}

func TestWindowClamped(t *testing.T) {
	s := Segment[uint64]{Start: 100, StartPos: 0, Count: 10, Slope: 1}
	lo, hi := s.Window(1, 5) // key far below start: prediction is very negative
	if lo < 0 || hi > 9 || lo > hi {
		t.Fatalf("window [%d,%d] not clamped to [0,9]", lo, hi)
	}
	lo, hi = s.Window(10_000, 5) // far above
	if lo < 0 || hi > 9 || lo > hi {
		t.Fatalf("window [%d,%d] not clamped to [0,9]", lo, hi)
	}
}

func TestMaxSegmentsBound(t *testing.T) {
	if b := MaxSegmentsBound(10, 100, 9); b != 5 {
		t.Fatalf("bound = %d, want min(5, 10) = 5", b)
	}
	if b := MaxSegmentsBound(1000, 100, 99); b != 1 {
		t.Fatalf("bound = %d, want 1", b)
	}
	if b := MaxSegmentsBound(0, 0, 10); b != 1 {
		t.Fatalf("bound = %d, want at least 1", b)
	}
}

// Property: segmentation with a larger error threshold never produces more
// segments, and both segmentations satisfy their own bounds.
func TestQuickMonotoneInError(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		s1 := ShrinkingCone(keys, 2)
		s2 := ShrinkingCone(keys, 20)
		if Verify(keys, s1, 2) != nil || Verify(keys, s2, 20) != nil {
			return false
		}
		return len(s2) <= len(s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: float keys segment correctly too (longitude-style data).
func TestQuickFloatKeys(t *testing.T) {
	f := func(raw []float32) bool {
		keys := make([]float64, 0, len(raw))
		for _, r := range raw {
			f := float64(r)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			keys = append(keys, f)
		}
		sort.Float64s(keys)
		if len(keys) == 0 {
			return true
		}
		segs := ShrinkingCone(keys, 4)
		return Verify(keys, segs, 4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShrinkingCone1M(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	keys := sortedUint64(rng, 1_000_000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShrinkingCone(keys, 100)
	}
}

// TestFitsIsPredictWithinBound checks Fits against its definition — every
// key's Predict within err of its position — on runs longer than one
// projection block, for the segment's own slope (fits) and for slopes
// bent until the bound breaks.
func TestFitsIsPredictWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fits, breaks := 0, 0
	for trial := 0; trial < 200; trial++ {
		keys := sortedUint64(rng, 300+rng.Intn(1500))
		if trial%2 == 0 {
			// Near-linear: one segment spanning several projection blocks.
			for i := range keys {
				keys[i] = uint64(i*1000 + rng.Intn(900))
			}
		}
		e := 1 + rng.Intn(64)
		seg := ShrinkingCone(keys, e)[0]
		if trial%2 == 0 && seg.Count <= approxBlock {
			t.Fatalf("trial %d: near-linear run cut after %d keys", trial, seg.Count)
		}
		run := keys[:seg.Count]
		for _, bend := range []float64{1, 1 + rng.Float64()/float64(len(run)), 1 - rng.Float64()/10, 2} {
			s := Segment[uint64]{Start: seg.Start, Count: seg.Count, Slope: seg.Slope * bend}
			want := true
			for i, k := range run {
				if math.Abs(s.Predict(k)-float64(i)) > float64(e) {
					want = false
					break
				}
			}
			if got := Fits(run, s.Start, s.Slope, e); got != want {
				t.Fatalf("trial %d bend %g: Fits = %v over %d keys, Predict says %v", trial, bend, got, len(run), want)
			}
			if want {
				fits++
			} else {
				breaks++
			}
		}
	}
	if fits == 0 || breaks == 0 {
		t.Fatalf("one-sided test: %d fitting, %d breaking cases", fits, breaks)
	}
	if !Fits([]uint64(nil), 0, 1, 1) {
		t.Fatal("an empty run does not fit")
	}
}
