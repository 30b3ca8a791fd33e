package core

import (
	"math/rand"
	"sort"
	"testing"
)

// genTombOps builds a random valid delta layer carrying value tombstones
// against the given content stream. Validity is the write path's
// invariant: every tombstone, applied sequentially, has a live victim in
// the stream — an Any entry takes the first remaining match, a value
// entry the first remaining match holding its value. Roughly half the
// pure-anonymous entries are emitted in the counted (Dels) form so both
// representations mix across layers.
func genTombOps(rng *rand.Rand, stream []pair, maxKey uint64) []MergeOp[uint64, uint64] {
	opKeys := map[uint64]bool{}
	var ops []MergeOp[uint64, uint64]
	for len(ops) < 1+rng.Intn(30) {
		ok := uint64(rng.Intn(int(maxKey) + 10))
		if opKeys[ok] {
			continue
		}
		opKeys[ok] = true
		op := MergeOp[uint64, uint64]{Key: ok}
		for a := rng.Intn(3); a > 0; a-- {
			op.Adds = append(op.Adds, 3_000_000+rng.Uint64()%1_000_000)
		}
		var live []uint64
		for _, p := range stream {
			if p.k == ok {
				live = append(live, p.v)
			}
		}
		nDel := 0
		if len(live) > 0 && rng.Intn(2) == 0 {
			nDel = 1 + rng.Intn(len(live))
		}
		anyOnly := true
		for d := 0; d < nDel; d++ {
			if rng.Intn(2) == 0 { // anonymous: victim is the first remaining
				op.Tombs = append(op.Tombs, Tomb[uint64]{Any: true})
				live = live[1:]
				continue
			}
			// value-naming: victim is the first remaining equal-valued match
			anyOnly = false
			vi := rng.Intn(len(live))
			op.Tombs = append(op.Tombs, Tomb[uint64]{Val: live[vi]})
			for j, v := range live {
				if v == live[vi] {
					live = append(live[:j:j], live[j+1:]...)
					break
				}
			}
		}
		if anyOnly && rng.Intn(2) == 0 {
			op.Dels, op.Tombs = len(op.Tombs), nil
		}
		if len(op.Adds) == 0 && op.Dels == 0 && len(op.Tombs) == 0 {
			op.Adds = []uint64{999}
		}
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

// applyTombOpsModel is the reference semantics of one layer: each op's
// tombstones consume the stream's live matches for its key under the
// streaming rule, then the op's adds follow the key's last survivor in
// key order.
func applyTombOpsModel(base []pair, ops []MergeOp[uint64, uint64]) []pair {
	sets := map[uint64]*TombSet[uint64]{}
	adds := map[uint64][]uint64{}
	var keys []uint64
	for _, op := range ops {
		s := NewTombSet(op.Dels, op.Tombs)
		sets[op.Key] = &s
		adds[op.Key] = op.Adds
		keys = append(keys, op.Key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var out []pair
	for _, p := range base {
		if s, ok := sets[p.k]; ok && s.Consume(p.v) {
			continue
		}
		out = append(out, p)
	}

	var merged []pair
	ki, i := 0, 0
	for i < len(out) {
		p := out[i]
		for ki < len(keys) && keys[ki] < p.k {
			for _, v := range adds[keys[ki]] {
				merged = append(merged, pair{keys[ki], v})
			}
			ki++
		}
		if ki < len(keys) && keys[ki] == p.k {
			for i < len(out) && out[i].k == p.k {
				merged = append(merged, out[i])
				i++
			}
			for _, v := range adds[keys[ki]] {
				merged = append(merged, pair{keys[ki], v})
			}
			ki++
			continue
		}
		merged = append(merged, p)
		i++
	}
	for ; ki < len(keys); ki++ {
		for _, v := range adds[keys[ki]] {
			merged = append(merged, pair{keys[ki], v})
		}
	}
	return merged
}

// TestValueTombstonesRandomized cross-checks every fold path on layers
// mixing counted, anonymous-list, and value tombstones: the layered and
// pass-by-pass MergeCOW folds and the CompactOps-then-MergeCOW fold must
// all publish exactly the content the reference model derives, for layers
// generated under the write path's relativity rule (each layer's
// tombstones have live victims in the view beneath it).
func TestValueTombstonesRandomized(t *testing.T) {
	for _, ms := range modelSeeds {
		t.Run(ms.name, func(t *testing.T) { testValueTombstonesRandomized(t, ms.shift) })
	}
}

func testValueTombstonesRandomized(t *testing.T, shift int64) {
	rng := rand.New(rand.NewSource(1291 + shift))
	for trial := 0; trial < 30; trial++ {
		n := 200 + rng.Intn(1200)
		keys := make([]uint64, n)
		k := uint64(0)
		for i := range keys {
			if rng.Intn(3) > 0 {
				k += uint64(rng.Intn(4))
			}
			keys[i] = k
		}
		base := buildCOWBase(t, keys, Options{Error: 8 + rng.Intn(24), BufferSize: 4})
		before := contents(base)

		lower := genTombOps(rng, before, k)
		middle := applyTombOpsModel(before, lower)
		upper := genTombOps(rng, middle, k)
		want := applyTombOpsModel(middle, upper)

		assertContents := func(label string, got []pair) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s fold %d elements, want %d", trial, label, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s element %d = %v, want %v", trial, label, i, got[i], want[i])
				}
			}
		}
		assertContents("MergeCOW layered", contents(base.MergeCOW(lower, upper)))
		assertContents("MergeCOW pass by pass", contents(base.MergeCOW(lower).MergeCOW(upper)))
		compacted := CompactOps(lower, upper, base.Each)
		assertContents("compacted", contents(base.MergeCOW(compacted)))

		// Depth 3: a third value-tombstone layer over the fold, applied
		// both sequentially and over the compacted bottom pair.
		top := genTombOps(rng, want, k)
		want3 := applyTombOpsModel(want, top)
		got3 := contents(base.MergeCOW(lower, upper, top))
		gotC := contents(base.MergeCOW(compacted, top))
		if len(got3) != len(want3) || len(gotC) != len(want3) {
			t.Fatalf("trial %d: depth-3 folds %d/%d elements, want %d", trial, len(got3), len(gotC), len(want3))
		}
		for i := range want3 {
			if got3[i] != want3[i] || gotC[i] != want3[i] {
				t.Fatalf("trial %d: depth-3 element %d = %v/%v, want %v", trial, i, got3[i], gotC[i], want3[i])
			}
		}
	}
}

// TestTreeDeleteValueModel drives the plain tree's DeleteValue and
// DeleteWhere against a per-key multiset model under random inserts,
// buffer merges, and page erosion. DeleteValue names its victim by value,
// so the multiset evolution is exactly deterministic; anonymous Delete is
// only issued when a key's live values are all equal, keeping the model
// exact there too.
func TestTreeDeleteValueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tr, err := BulkLoad[uint64, uint64](nil, nil, Options{Error: 16, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]map[uint64]int{} // key -> value -> count
	total := 0
	for op := 0; op < 20_000; op++ {
		k := uint64(rng.Intn(200))
		switch r := rng.Intn(10); {
		case r < 5: // insert, heavy value duplication
			v := uint64(rng.Intn(8))
			tr.Insert(k, v)
			if model[k] == nil {
				model[k] = map[uint64]int{}
			}
			model[k][v]++
			total++
		case r < 8: // value-addressed delete
			v := uint64(rng.Intn(8))
			want := model[k][v] > 0
			if got := tr.DeleteValue(k, v); got != want {
				t.Fatalf("op %d: DeleteValue(%d,%d) = %v, model %v", op, k, v, got, want)
			}
			if want {
				model[k][v]--
				total--
			}
		case r < 9: // predicate delete naming a unique value class
			v := uint64(rng.Intn(8))
			want := model[k][v] > 0
			if got := tr.DeleteWhere(k, func(w uint64) bool { return w == v }); got != want {
				t.Fatalf("op %d: DeleteWhere(%d,==%d) = %v, model %v", op, k, v, got, want)
			}
			if want {
				model[k][v]--
				total--
			}
		default: // anonymous delete, only when the victim value is forced
			distinct, live := 0, 0
			for _, c := range model[k] {
				if c > 0 {
					distinct++
					live += c
				}
			}
			if distinct > 1 {
				continue
			}
			if got := tr.Delete(k); got != (live > 0) {
				t.Fatalf("op %d: Delete(%d) = %v, model live %d", op, k, got, live)
			}
			if live > 0 {
				for v, c := range model[k] {
					if c > 0 {
						model[k][v]--
					}
				}
				total--
			}
		}
		if op%4_000 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, model %d", tr.Len(), total)
	}
	for k, vals := range model {
		got := map[uint64]int{}
		tr.Each(k, func(v uint64) bool {
			got[v]++
			return true
		})
		for v, c := range vals {
			if got[v] != c {
				t.Fatalf("key %d value %d: count %d, model %d", k, v, got[v], c)
			}
		}
		for v, c := range got {
			if vals[v] != c {
				t.Fatalf("key %d value %d: count %d, model %d", k, v, c, vals[v])
			}
		}
	}
}
