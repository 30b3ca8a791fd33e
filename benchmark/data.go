package main

// data.go makes every input from the seed: the key universe, its split
// into bulk-loaded and held-out keys, the oracle that says which keys are
// live, and the operation streams. The library sees only what comes out.

import (
	"math/rand"

	"fitingtree/internal/workload"
)

// valueMix makes the value a function of the key, so every read is
// checkable without storing what was written.
const valueMix = 0x9e3779b97f4a7c15

func valueOf(k uint64) uint64 { return k ^ valueMix }

const scanRows = 100 // rows one range scan reads

// dataset is a sorted, duplicate-free universe of Weblogs timestamps, part
// of it bulk-loaded and the rest held out as the keys later inserts use —
// so inserts follow the distribution of the data they land in. It doubles
// as the oracle: live says which universe keys the index must hold now.
type dataset struct {
	universe []uint64
	live     []bool
	count    int // live keys

	bulkKeys, bulkVals []uint64
	bulkIdx            []int32 // universe index of each bulk key, ascending
	hold               []int32 // universe indices of held-out keys, shuffled
}

// newDataset draws bulk+hold keys and picks the bulk ones at random.
func newDataset(bulk, hold int, seed int64) *dataset {
	keys := workload.Weblogs(bulk+hold, seed)
	u := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			u = append(u, k)
		}
	}
	if hold > len(u)-1 {
		hold = len(u) - 1
	}
	bulk = len(u) - hold
	d := &dataset{
		universe: u,
		live:     make([]bool, len(u)),
		count:    bulk,
		bulkKeys: make([]uint64, 0, bulk),
		bulkVals: make([]uint64, 0, bulk),
		bulkIdx:  make([]int32, 0, bulk),
		hold:     make([]int32, 0, hold),
	}
	// Selection sampling: each key joins the bulk with probability
	// (bulk still needed) / (keys still to see), which picks exactly
	// bulk of them, uniformly.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	need := bulk
	for i, k := range u {
		if rng.Intn(len(u)-i) < need {
			need--
			d.live[i] = true
			d.bulkKeys = append(d.bulkKeys, k)
			d.bulkVals = append(d.bulkVals, valueOf(k))
			d.bulkIdx = append(d.bulkIdx, int32(i))
		} else {
			d.hold = append(d.hold, int32(i))
		}
	}
	rng.Shuffle(len(d.hold), func(i, j int) { d.hold[i], d.hold[j] = d.hold[j], d.hold[i] })
	return d
}

// liveRun returns the live keys and their values in key order: the
// contents the index must have.
func (d *dataset) liveRun() (keys, vals []uint64) {
	keys = make([]uint64, 0, d.count)
	vals = make([]uint64, 0, d.count)
	for i, k := range d.universe {
		if d.live[i] {
			keys = append(keys, k)
			vals = append(vals, valueOf(k))
		}
	}
	return keys, vals
}

// absentKey returns a key just above universe[i] that is not in the
// universe, or false when the next universe key is adjacent.
func (d *dataset) absentKey(i int) (uint64, bool) {
	k := d.universe[i] + 1
	if i+1 < len(d.universe) && d.universe[i+1] == k {
		return 0, false
	}
	return k, true
}

type opKind uint8

const (
	opLookup opKind = iota
	opInsert
	opDelete
	opScan
)

var opSpanNames = [...]string{"op.lookup", "op.insert", "op.delete", "op.scan"}

// op is one client operation. idx is the key's universe index, or -1 for a
// key outside the universe (a lookup that must miss).
type op struct {
	kind opKind
	idx  int32
	key  uint64
}

// gen draws operation streams. It keeps the held-out keys not yet used and
// the inserted keys not yet deleted, which is all it needs to emit inserts
// of fresh keys, deletes of earlier inserts and lookups over both.
type gen struct {
	d        *dataset
	rng      *rand.Rand
	nextHold int
	inserted []int32
}

func newGen(d *dataset, seed int64) *gen {
	return &gen{d: d, rng: rand.New(rand.NewSource(seed ^ 0x09e5))}
}

func (g *gen) at(kind opKind, idx int32) op {
	return op{kind: kind, idx: idx, key: g.d.universe[idx]}
}

// insert uses the next held-out key. It reports false when none is left.
func (g *gen) insert() (op, bool) {
	if g.nextHold == len(g.d.hold) {
		return op{}, false
	}
	idx := g.d.hold[g.nextHold]
	g.nextHold++
	g.inserted = append(g.inserted, idx)
	return g.at(opInsert, idx), true
}

// remove deletes a random earlier insert, or inserts when there is none.
func (g *gen) remove() (op, bool) {
	if len(g.inserted) == 0 {
		return g.insert()
	}
	i := g.rng.Intn(len(g.inserted))
	idx := g.inserted[i]
	last := len(g.inserted) - 1
	g.inserted[i] = g.inserted[last]
	g.inserted = g.inserted[:last]
	return g.at(opDelete, idx), true
}

// present picks a live key: half the time an earlier insert when there is
// one, otherwise a bulk key.
func (g *gen) present(kind opKind) op {
	if len(g.inserted) > 0 && g.rng.Intn(2) == 0 {
		return g.at(kind, g.inserted[g.rng.Intn(len(g.inserted))])
	}
	return g.at(kind, g.d.bulkIdx[g.rng.Intn(len(g.d.bulkIdx))])
}

// absent picks a key that is in no universe and so must not be found.
func (g *gen) absent() op {
	for {
		if k, ok := g.d.absentKey(g.rng.Intn(len(g.d.universe))); ok {
			return op{kind: opLookup, idx: -1, key: k}
		}
	}
}

// lookup draws a point lookup, absent one time in ten.
func (g *gen) lookup() op {
	if g.rng.Intn(10) == 0 {
		return g.absent()
	}
	return g.present(opLookup)
}

// lookups draws n uniform point lookups, 90 % present and 10 % absent.
func (g *gen) lookups(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.lookup()
	}
	return ops
}

// hotLookups draws n lookups of bulk keys, 95 % of them on a contiguous 1 %
// of the keys: the working set that fits the cache.
func (g *gen) hotLookups(n int) []op {
	picks := workload.HotCold(g.d.bulkIdx, n, 0.5, 0.01, 0.95, g.rng.Int63())
	ops := make([]op, n)
	for i, idx := range picks {
		ops[i] = g.at(opLookup, idx)
	}
	return ops
}

// scans draws n range scans starting at live keys.
func (g *gen) scans(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.present(opScan)
	}
	return ops
}

// writes draws n writes: deletePct % deletes of earlier inserts, the rest
// inserts of held-out keys. It stops short when the held-out keys run out.
func (g *gen) writes(n, deletePct int) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		var o op
		var ok bool
		if g.rng.Intn(100) < deletePct {
			o, ok = g.remove()
		} else {
			o, ok = g.insert()
		}
		if !ok {
			break
		}
		ops = append(ops, o)
	}
	return ops
}

// mix is a traffic mix in percent; what is left of 100 is inserts.
type mix struct{ lookup, scan, del int }

var (
	mixedRW       = mix{lookup: 48, scan: 2, del: 5} // 45 % inserts
	durableIngest = mix{lookup: 5}                   // 95 % inserts
)

// mixed draws n interleaved operations in the given mix.
func (g *gen) mixed(n int, m mix) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		var o op
		ok := true
		switch r := g.rng.Intn(100); {
		case r < m.lookup:
			o = g.lookup()
		case r < m.lookup+m.scan:
			o = g.present(opScan)
		case r < m.lookup+m.scan+m.del:
			o, ok = g.remove()
		default:
			o, ok = g.insert()
		}
		if !ok {
			break
		}
		ops = append(ops, o)
	}
	return ops
}
