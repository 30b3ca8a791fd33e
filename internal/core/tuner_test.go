package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"fitingtree/internal/workload"
)

// plantTwoRegions installs a hand-made plan: tight bounds below mid,
// loose bounds at and above it.
func plantTwoRegions(tr *Tree[int, int], mid, tightE, looseE int) {
	tr.tune.plan.Store(&regionPlan[int]{targets: []RegionTarget[int]{
		{Start: tr.chunks[0].start(), RegionStat: RegionStat{Epsilon: tightE, ChunkTarget: chunkTarget}},
		{Start: mid, RegionStat: RegionStat{Epsilon: looseE, ChunkTarget: chunkTarget}},
	}})
}

func TestSegErrForFollowsPlan(t *testing.T) {
	tr, keys := buildJagged(t, 20_000)
	mid := keys[len(keys)/2]
	if got, want := tr.segErrFor(keys[0]), tr.opts.segError(); got != want {
		t.Fatalf("untuned segErrFor = %d, want global %d", got, want)
	}
	plantTwoRegions(tr, mid, 4, 64)
	if got := tr.segErrFor(keys[0]); got != 4-tr.opts.BufferSize {
		t.Fatalf("tight region segErrFor = %d, want %d", got, 4-tr.opts.BufferSize)
	}
	if got := tr.segErrFor(keys[len(keys)-1]); got != 64-tr.opts.BufferSize {
		t.Fatalf("loose region segErrFor = %d, want %d", got, 64-tr.opts.BufferSize)
	}
	// Keys below the first region start clamp to region 0; a bound that
	// would vanish under the buffer reservation floors at 1.
	if got := tr.segErrFor(keys[0] - 1000); got != 4-tr.opts.BufferSize {
		t.Fatalf("below-range segErrFor = %d", got)
	}
	plantTwoRegions(tr, mid, 1, 64)
	if got := tr.segErrFor(keys[0]); got != 1 {
		t.Fatalf("floored segErrFor = %d, want 1", got)
	}
}

// loadHalves paints the load counters: pages below mid read-dominated,
// pages at and above it write-dominated.
func loadHalves(tr *Tree[int, int], mid int) {
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			if p.start() < mid {
				atomic.StoreUint64(&p.reads, 1_000_000)
				atomic.StoreUint64(&p.writes, 10)
			} else {
				atomic.StoreUint64(&p.reads, 10)
				atomic.StoreUint64(&p.writes, 1_000_000)
			}
		}
	}
}

func TestRetuneRegionTargets(t *testing.T) {
	tr, keys := buildJagged(t, 50_000)
	mid := keys[len(keys)/2]
	loadHalves(tr, mid)
	stats := tr.Retune()
	if len(stats) == 0 || len(stats) > tuneRegions+1 {
		t.Fatalf("Retune produced %d regions", len(stats))
	}
	plan := tr.tune.planOf()
	if plan == nil || len(plan.targets) != len(stats) {
		t.Fatal("Retune did not publish its plan")
	}
	cands := epsilonLadder(tr.opts)
	minE, maxE := cands[0], cands[len(cands)-1]
	var readEps, writeEps []int
	for i, st := range stats {
		if st.Epsilon < minE || st.Epsilon > maxE {
			t.Fatalf("region %d epsilon %d outside ladder [%d, %d]", i, st.Epsilon, minE, maxE)
		}
		// Regions straddling mid mix both halves; classify by the pure ones.
		start := plan.targets[i].Start
		end := keys[len(keys)-1] + 1
		if i+1 < len(plan.targets) {
			end = plan.targets[i+1].Start
		}
		switch {
		case end <= mid: // read-dominated half
			if st.WriteHot || st.ChunkTarget != chunkTargetCold {
				t.Fatalf("read region %d: WriteHot=%v ChunkTarget=%d", i, st.WriteHot, st.ChunkTarget)
			}
			readEps = append(readEps, st.Epsilon)
		case start >= mid: // write-dominated half
			if !st.WriteHot || st.ChunkTarget != chunkTargetHot {
				t.Fatalf("write region %d: WriteHot=%v ChunkTarget=%d", i, st.WriteHot, st.ChunkTarget)
			}
			writeEps = append(writeEps, st.Epsilon)
		}
	}
	if len(readEps) == 0 || len(writeEps) == 0 {
		t.Fatalf("no pure regions on either side: read %d, write %d", len(readEps), len(writeEps))
	}
	// The cost model trades the in-page window against merge amortization:
	// lookup-dominated regions must not pick a looser bound than
	// insert-dominated ones.
	for _, re := range readEps {
		for _, we := range writeEps {
			if re > we {
				t.Fatalf("read-heavy region epsilon %d looser than write-heavy %d", re, we)
			}
		}
	}
	// Stats mirrors the plan for observability.
	sr := tr.Stats().Regions
	if len(sr) != len(stats) {
		t.Fatalf("Stats().Regions has %d entries, Retune returned %d", len(sr), len(stats))
	}
}

func TestRetuneEmptyAndUntuned(t *testing.T) {
	var empty Tree[int, int]
	if got := empty.Retune(); got != nil {
		t.Fatalf("Retune on zero tree = %v", got)
	}
	tr, _ := buildJagged(t, 5_000)
	tr.tune = nil // a lineage predating the tuning state
	if got := tr.Retune(); got != nil {
		t.Fatalf("Retune without tune state = %v", got)
	}
	if got, want := tr.segErrFor(0), tr.opts.segError(); got != want {
		t.Fatalf("segErrFor without tune state = %d, want %d", got, want)
	}
}

// mixedWErrTree builds a tree whose pages carry two different error
// bounds: a tight plan region is installed and every page is rebuilt
// through the single-writer merge path.
func mixedWErrTree(t *testing.T) (*Tree[int, int], []int) {
	t.Helper()
	tr, keys := buildJagged(t, 30_000)
	mid := keys[len(keys)/2]
	plantTwoRegions(tr, mid, 4, 48)
	// Force merges across the whole key range: repeated inserts overflow
	// each page's buffer, and the rebuild consults segErrFor.
	for round := 0; round < tr.opts.BufferSize+2; round++ {
		for i := 0; i < len(keys); i += 40 {
			tr.Insert(keys[i]+1, -i)
		}
	}
	seen := map[int]int{}
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			seen[p.werr]++
		}
	}
	if len(seen) < 2 {
		t.Fatalf("expected mixed per-page bounds, got %v", seen)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr, keys
}

func TestWErrPersistsThroughAssemble(t *testing.T) {
	tr, _ := mixedWErrTree(t)
	re, err := AssembleChunks(snapAll(tr), tr.Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
	var want, got []int
	for _, c := range tr.chunks {
		for _, p := range c.pages {
			want = append(want, p.werr)
		}
	}
	for _, c := range re.chunks {
		for _, p := range c.pages {
			got = append(got, p.werr)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("recovered %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("page %d recovered werr %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWErrLegacySnapshotFallsBack(t *testing.T) {
	tr, _ := mixedWErrTree(t)
	snaps := snapAll(tr)
	for ci := range snaps {
		for pi := range snaps[ci].Pages {
			snaps[ci].Pages[pi].WErr = 0 // as written before the field existed
		}
	}
	re, err := AssembleChunks(snaps, tr.Options())
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Options().segError()
	for _, c := range re.chunks {
		for _, p := range c.pages {
			if p.werr != want {
				t.Fatalf("legacy page restored with werr %d, want global %d", p.werr, want)
			}
		}
	}
	// A negative bound is corruption, not legacy.
	snaps[0].Pages[0].WErr = -1
	if _, err := AssembleChunks(snaps, tr.Options()); err == nil {
		t.Fatal("negative WErr assembled without error")
	}
}

func TestSnapCodecRoundTripsWErr(t *testing.T) {
	tr, _ := mixedWErrTree(t)
	codec := NewSnapCodec[int, int]()
	for ci := 0; ci < tr.NumChunks(); ci++ {
		snap := tr.ChunkSnap(ci)
		blob, err := codec.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Pages) != len(snap.Pages) {
			t.Fatalf("chunk %d: decoded %d pages, want %d", ci, len(back.Pages), len(snap.Pages))
		}
		for pi := range snap.Pages {
			if back.Pages[pi].WErr != snap.Pages[pi].WErr {
				t.Fatalf("chunk %d page %d: decoded WErr %d, want %d",
					ci, pi, back.Pages[pi].WErr, snap.Pages[pi].WErr)
			}
		}
	}
}

func TestChunkLoadsReflectCounters(t *testing.T) {
	tr, keys := buildJagged(t, 20_000)
	mid := keys[len(keys)/2]
	loadHalves(tr, mid)
	loads := tr.ChunkLoads()
	if len(loads) != tr.NumChunks() {
		t.Fatalf("ChunkLoads returned %d entries for %d chunks", len(loads), tr.NumChunks())
	}
	elems := 0
	for i, l := range loads {
		if i > 0 && loads[i-1].Start >= l.Start {
			t.Fatalf("chunk starts not ascending at %d", i)
		}
		if l.Reads+l.Writes == 0 {
			t.Fatalf("chunk %d lost its load counters", i)
		}
		elems += l.Elements
	}
	if elems != tr.Len() {
		t.Fatalf("ChunkLoads elements %d, tree has %d", elems, tr.Len())
	}
}

// TestLookupBatchCountsSampledReads: the batch kernel answers a key on a
// sampled page through the counting point path, not around it — the same
// probes add to every page's read counter exactly what a Lookup loop adds,
// whether the batch is unsorted or ascends.
func TestLookupBatchCountsSampledReads(t *testing.T) {
	keys := workload.Weblogs(200_000, 3)
	tr, err := BulkLoad(keys, make([]uint64, len(keys)), Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	reads := func() (out []uint64, total uint64) {
		for _, c := range tr.chunks {
			for _, p := range c.pages {
				out = append(out, atomic.LoadUint64(&p.reads))
				total += out[len(out)-1]
			}
		}
		return out, total
	}
	rng := rand.New(rand.NewSource(9))
	probes := make([]uint64, 20_000)
	for i := range probes {
		probes[i] = keys[rng.Intn(len(keys))] + uint64(rng.Intn(2)) // hits and misses
	}
	for _, k := range probes {
		tr.Lookup(k)
	}
	loop, sampled := reads()
	if sampled == 0 {
		t.Fatal("no sampled page was read: the test proves nothing")
	}
	for pass, order := range []string{"unsorted", "ascending"} {
		if order == "ascending" {
			slices.Sort(probes)
		}
		for at := 0; at < len(probes); at += 250 {
			tr.LookupBatch(probes[at : at+250])
		}
		got, _ := reads()
		for i := range got {
			if want := loop[i] * uint64(pass+2); got[i] != want {
				t.Fatalf("%s batches: page %d counts %d reads, the Lookup loop's rate gives %d", order, i, got[i], want)
			}
		}
	}
}
