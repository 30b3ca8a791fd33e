package main

// measure.go: the runner that executes operations and checks every result
// against the oracle, and the small statistics the metrics are made of.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	ratePasses = 5  // a rate is the median of this many equal passes
	sampleOne  = 16 // inside a mix, one op in this many is timed for its p50
	batchSize  = 256
)

// runner drives one stack with one client and keeps the failure account.
type runner struct {
	s  stack
	d  *dataset
	tr *tracer // nil outside a traced run

	attempted, failed int64
	firstFailure      string
	nextOp            int64
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// check counts one end-of-run assertion.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// do executes one operation, checks its result against the oracle and
// brings the oracle up to date. With ns not nil it stores the time the
// library call took, the result check left out.
func (r *runner) do(o op, ns *int64) {
	r.attempted++
	if r.tr != nil {
		r.tr.begin(r.nextOp)
		r.nextOp++
	}
	var start time.Time
	if ns != nil {
		start = time.Now()
	}
	switch o.kind {
	case opLookup:
		v, ok := r.s.Lookup(o.key)
		if ns != nil {
			*ns = time.Since(start).Nanoseconds()
		}
		want := o.idx >= 0 && r.d.live[o.idx]
		if ok != want || (ok && v != valueOf(o.key)) {
			r.fail("lookup %d: got (%d, %v), want present=%v", o.key, v, ok, want)
		}
	case opInsert:
		err := r.s.Insert(o.key, valueOf(o.key))
		if ns != nil {
			*ns = time.Since(start).Nanoseconds()
		}
		if err != nil {
			r.fail("insert %d: %v", o.key, err)
		} else {
			r.d.live[o.idx] = true
			r.d.count++
		}
	case opDelete:
		found, err := r.s.Delete(o.key)
		if ns != nil {
			*ns = time.Since(start).Nanoseconds()
		}
		if err != nil || !found {
			r.fail("delete %d: found=%v err=%v", o.key, found, err)
		}
		if err == nil && found {
			r.d.live[o.idx] = false
			r.d.count--
		}
	case opScan:
		r.scan(o)
		if ns != nil {
			*ns = time.Since(start).Nanoseconds()
		}
	}
	if r.tr != nil {
		r.tr.end(opSpanNames[o.kind])
	}
}

// scan reads up to scanRows rows from o.key on and checks that they are
// exactly the next live keys, in order, with their values.
func (r *runner) scan(o op) int {
	next := int(o.idx)
	rows := 0
	bad := false
	r.s.AscendRange(o.key, math.MaxUint64, func(k, v uint64) bool {
		for next < len(r.d.live) && !r.d.live[next] {
			next++
		}
		if next == len(r.d.live) || r.d.universe[next] != k || v != valueOf(k) {
			bad = true
			return false
		}
		next++
		rows++
		return rows < scanRows
	})
	if !bad && rows < scanRows {
		for ; next < len(r.d.live); next++ {
			if r.d.live[next] {
				bad = true // the scan stopped before the data did
				break
			}
		}
	}
	if bad {
		r.fail("scan from %d: row %d differs from the oracle", o.key, rows)
	}
	return rows
}

// batch looks up the keys of ops in one call and checks every answer.
func (r *runner) batch(ops []op, keys []uint64) {
	r.attempted += int64(len(ops))
	vals, found := r.s.LookupBatch(keys)
	for i, o := range ops {
		want := o.idx >= 0 && r.d.live[o.idx]
		if found[i] != want || (want && vals[i] != valueOf(o.key)) {
			r.fail("batch lookup %d: got (%d, %v), want present=%v", o.key, vals[i], found[i], want)
		}
	}
}

// scanPass runs scans and returns the rows read and the seconds taken.
func (r *runner) scanPass(scans []op) (rows int, secs float64) {
	start := time.Now()
	for _, o := range scans {
		r.attempted++
		rows += r.scan(o)
	}
	return rows, time.Since(start).Seconds()
}

// batchPass looks ops up batchSize at a time — keys holds their keys, and
// their number is a multiple of batchSize — and returns the seconds taken.
func (r *runner) batchPass(ops []op, keys []uint64) float64 {
	start := time.Now()
	for i := 0; i < len(ops); i += batchSize {
		r.batch(ops[i:i+batchSize], keys[i:i+batchSize])
	}
	return time.Since(start).Seconds()
}

// keysOf returns the keys of ops, cut to a multiple of batchSize.
func keysOf(ops []op) ([]op, []uint64) {
	ops = ops[:len(ops)/batchSize*batchSize]
	keys := make([]uint64, len(ops))
	for i, o := range ops {
		keys[i] = o.key
	}
	return ops, keys
}

// closeChecked checks the end state against the oracle — count, shape,
// health — and closes the stack, all on the failure account.
func (r *runner) closeChecked() {
	n := r.s.Len()
	st := r.s.Stats()
	r.check(n == r.d.count, "Len() = %d, oracle holds %d", n, r.d.count)
	r.check(st.Elements == n && st.Pages > 0, "Stats() = %d elements in %d pages, Len() = %d", st.Elements, st.Pages, n)
	err := r.s.Health()
	r.check(err == nil, "unhealthy at the end: %v", err)
	err = r.s.Close()
	r.check(err == nil, "close: %v", err)
	r.s = nil
}

// run executes ops in order, untimed per op, and returns the seconds taken.
func (r *runner) run(ops []op) float64 {
	start := time.Now()
	for _, o := range ops {
		r.do(o, nil)
	}
	return time.Since(start).Seconds()
}

// samples holds individually timed operations of one kind.
type samples []int64

func (s samples) sorted() samples {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile of sorted samples; 0 when there are none.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[int(q*float64(len(s)-1))])
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

// timings are the per-kind samples of a timed or sampled pass. Deletes
// count as writes; no metric is made of a timed scan.
type timings struct{ lookup, write samples }

func (t *timings) add(k opKind, ns int64) {
	switch k {
	case opLookup:
		t.lookup = append(t.lookup, ns)
	case opInsert, opDelete:
		t.write = append(t.write, ns)
	}
}

// runSampled executes ops, timing one in every (every 1 = all of them)
// into t, and returns the seconds the whole pass took.
func (r *runner) runSampled(ops []op, every int, t *timings) float64 {
	start := time.Now()
	for i, o := range ops {
		if i%every != 0 {
			r.do(o, nil)
			continue
		}
		var ns int64
		r.do(o, &ns)
		t.add(o.kind, ns)
	}
	return time.Since(start).Seconds()
}

// split cuts ops into n equal consecutive parts, dropping the remainder.
func split(ops []op, n int) [][]op {
	size := len(ops) / n
	parts := make([][]op, n)
	for i := range parts {
		parts[i] = ops[i*size : (i+1)*size]
	}
	return parts
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so that the
// spread this program reports is the spread the contract's driver sees.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// quiesce returns freed memory to the operating system between phases, so
// one phase's garbage is not collected on the next one's clock.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
