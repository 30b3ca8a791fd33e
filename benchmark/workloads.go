package main

// workloads.go: the four workloads. Each builds its stack (several times,
// for setup_s), runs its main phases, and ends in finish, which measures on
// the workload's end state every end-to-end metric the main phases did not —
// the contract wants every metric from every workload — and then checks the
// end state against the oracle.
//
// Every rate is the median over many short chunks, and the read metrics'
// chunks take turns, so that each metric samples the whole read section and
// not one stretch of it: on a shared machine memory speed drifts by a tenth
// over seconds, and a metric measured in one stretch inherits that stretch.
// Every chunk and every timed call is also bracketed by two reads of the
// machine-speed control and reported at reference speed (see speed.go).

import (
	"fmt"
	"io"
	"os"
	"time"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// Key and op counts at -seconds 20 -scale 1. Key counts never scale with
// -seconds; op counts do.
const (
	bulkKeys     = 4_000_000 // 64 MB of rows, far more than the last-level cache
	holdReadOnly = 100_000   // held out of read_only for its closing write burst
	holdWrites   = 2_000_000 // held out of the write workloads: a third of the universe

	setupReps   = 5
	persistReps = 5

	writeChunk = 4096 // ops per chunk of a write stream: four delta folds

	ingestOps     = 330_000
	readBackOps   = 400_000 // distinct inserted keys the read-back cycles through
	mixedOps      = 760_000
	durableOps    = 30_000 // per segment; a checkpoint after each but the last
	durableCuts   = 9
	durableOpens  = 7
	durableUnsync = 255    // most ops that may follow the last Sync
	burstOps      = 80_000 // closing write burst of a read workload
)

// readPlan sizes the read section: rounds turns, in each of which every read
// metric still to be measured runs one chunk of the given size.
type readPlan struct {
	rounds                           int
	lookup, timed, hot, scans, batch int // ops per chunk
	probes                           int // distinct probes a metric cycles through
}

var (
	mainReads    = readPlan{rounds: 40, lookup: 150_000, timed: 10_000, hot: 150_000, scans: 12_000, batch: 100_000, probes: 2_000_000}
	closingReads = readPlan{rounds: 30, lookup: 50_000, timed: 5_000, hot: 50_000, scans: 4_000, batch: 50_000, probes: 1_000_000}
)

type config struct {
	workload string
	seed     int64
	work     float64   // multiplies op counts: seconds/refSeconds × scale
	size     float64   // multiplies key counts: scale
	tmp      string    // where durable stores and span files go
	traceOut string    // span file of a traced run
	progress io.Writer // -v output; nil for none
}

func (c config) ops(n int) int {
	return max(int(float64(n)*c.work), 2*batchSize)
}

func (c config) keys(n int) int {
	return max(int(float64(n)*c.size), 2000)
}

// report collects what a run measured.
type report struct {
	values  map[string]float64
	samples map[string]int64 // ops or timings each value rests on
	speeds  []float64        // every read of the machine-speed control

	progress io.Writer // nil for none
	last     time.Time
}

func newReport(progress io.Writer) *report {
	return &report{
		values:   make(map[string]float64),
		samples:  make(map[string]int64),
		progress: progress,
		last:     time.Now(),
	}
}

// set records a metric and, with -v, how long after the previous one.
func (rp *report) set(name string, v float64, n int) {
	rp.values[name] = v
	rp.samples[name] = int64(n)
	if rp.progress != nil {
		fmt.Fprintf(rp.progress, "+%6.2f s  %s\n", time.Since(rp.last).Seconds(), name)
		rp.last = time.Now()
	}
}

func (rp *report) has(name string) bool {
	_, ok := rp.values[name]
	return ok
}

// crashIO hands out crash-discard wrappers and remembers them, so the
// harness can pull the plug on the storage under a live facade.
type crashIO struct {
	fs  *crashFS
	dev *crashDev
}

func (c *crashIO) wrap() ioWrap {
	return ioWrap{
		fs: func(fsys wal.FS, dir string) wal.FS {
			c.fs = newCrashFS(fsys, dir)
			return c.fs
		},
		dev: func(dev pager.Device) pager.Device {
			c.dev = newCrashDev(dev)
			return c.dev
		},
	}
}

func (c *crashIO) crash() error {
	c.dev.Crash()
	return c.fs.Crash()
}

type bench struct {
	cfg config
	rp  *report
	r   *runner
	g   *gen
	sp  *speedometer

	dirs  storeDirs // under this run's directory in cfg.tmp
	dir   string    // the kept durable_dir stack's store
	crash *crashIO  // wrappers under the durable_dir stack, nil elsewhere
}

// timed runs fn between two reads of the machine's speed and returns the
// seconds it took at reference speed.
func (b *bench) timed(fn func()) float64 {
	before := b.sp.read()
	start := time.Now()
	fn()
	secs := time.Since(start).Seconds()
	return secs * (before + b.sp.read()) / 2
}

// setup generates the dataset, bulk-loads it and builds the stack,
// setupReps times; setup_s is the median and the last build is kept.
func (b *bench) setup(kind stackKind, hold int) error {
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if b.r != nil {
			if err := b.r.s.Close(); err != nil {
				return fmt.Errorf("close of setup %d: %w", rep, err)
			}
			b.r = nil
			if b.dir != "" {
				if err := os.RemoveAll(b.dir); err != nil {
					return err
				}
			}
		}
		quiesce()
		var w ioWrap
		if kind == kindDurableDir {
			var err error
			if b.dir, err = b.dirs.next(); err != nil {
				return err
			}
			b.crash = &crashIO{}
			w = b.crash.wrap()
		}
		var d *dataset
		var s stack
		var err error
		times = append(times, b.timed(func() {
			d = newDataset(b.cfg.keys(bulkKeys), b.cfg.keys(hold), b.cfg.seed)
			s, err = newStack(kind, d.bulkKeys, d.bulkVals, b.dir, w, harnessPolicy)
		}))
		if err != nil {
			return err
		}
		b.r = &runner{s: s, d: d}
		b.g = newGen(d, b.cfg.seed)
	}
	b.rp.set("setup_s", median(times), setupReps)
	quiesce()
	return nil
}

// measure is one metric taken a chunk at a time. step runs the next chunk
// and returns the work done (ops, rows or keys) and the seconds it took —
// or, for a latency, the chunk's median op time in ns.
type measure struct {
	name    string
	latency bool
	step    func() (work int, x float64)
	vals    []float64 // per chunk, at reference speed
	work    int
}

// turns runs one warm-up round, then rounds rounds in which every measure
// runs one chunk between two reads of the machine's speed, and records each
// measure's median.
func (b *bench) turns(rounds int, ms []*measure) {
	for _, m := range ms {
		m.step()
	}
	for i := 0; i < rounds; i++ {
		before := b.sp.read()
		for _, m := range ms {
			work, x := m.step()
			after := b.sp.read()
			speed := (before + after) / 2
			if m.latency {
				m.vals = append(m.vals, x*speed)
			} else {
				m.vals = append(m.vals, float64(work)/x/speed)
			}
			m.work += work
			before = after
		}
	}
	for _, m := range ms {
		b.rp.set(m.name, median(m.vals), m.work)
	}
	quiesce()
}

// cycle returns the next n of ops, starting over when they run out.
func cycle(ops []op, at *int, n int) []op {
	n = min(n, len(ops))
	if *at+n > len(ops) {
		*at = 0
	}
	part := ops[*at : *at+n]
	*at += n
	return part
}

// lookupMeasure runs chunk point lookups a step.
func (b *bench) lookupMeasure(name string, ops []op, chunk int) *measure {
	at := 0
	return &measure{name: name, step: func() (int, float64) {
		part := cycle(ops, &at, chunk)
		return len(part), b.r.run(part)
	}}
}

// timedMeasure times every lookup of its chunks; a chunk's value is its
// median.
func (b *bench) timedMeasure(ops []op, chunk int) *measure {
	at := 0
	return &measure{name: "lookup_ns_p50", latency: true, step: func() (int, float64) {
		var t timings
		part := cycle(ops, &at, chunk)
		b.r.runSampled(part, 1, &t)
		return len(part), t.lookup.sorted().quantile(0.5)
	}}
}

// scanMeasure counts rows, not scans.
func (b *bench) scanMeasure(scans []op, chunk int) *measure {
	at := 0
	return &measure{name: "scan_rows_per_s", step: func() (int, float64) {
		return b.r.scanPass(cycle(scans, &at, chunk))
	}}
}

// batchMeasure looks probes up batchSize keys a call.
func (b *bench) batchMeasure(probes []op, chunk int) *measure {
	probes, keys := keysOf(probes)
	chunk = min(max(chunk/batchSize, 1)*batchSize, len(probes))
	at := 0
	return &measure{name: "batch_keys_per_s", step: func() (int, float64) {
		if at+chunk > len(probes) {
			at = 0
		}
		secs := b.r.batchPass(probes[at:at+chunk], keys[at:at+chunk])
		at += chunk
		return chunk, secs
	}}
}

// reads measures the read metrics not yet set, their chunks taking turns.
// lookups, when not nil, are the probes lookup_ops_per_s uses in place of
// uniform ones.
func (b *bench) reads(p readPlan, lookups []op) {
	cfg, rp := b.cfg, b.rp
	n := cfg.ops(p.probes)
	probes := b.g.lookups(n)
	if lookups == nil {
		lookups = probes
	}
	var ms []*measure
	if !rp.has("lookup_ops_per_s") {
		ms = append(ms, b.lookupMeasure("lookup_ops_per_s", lookups, cfg.ops(p.lookup)))
	}
	if !rp.has("lookup_ns_p50") {
		ms = append(ms, b.timedMeasure(probes, cfg.ops(p.timed)))
	}
	if !rp.has("hot_lookup_ops_per_s") {
		ms = append(ms, b.lookupMeasure("hot_lookup_ops_per_s", b.g.hotLookups(n), cfg.ops(p.hot)))
	}
	if !rp.has("scan_rows_per_s") {
		ms = append(ms, b.scanMeasure(b.g.scans(n/10), cfg.ops(p.scans)))
	}
	if !rp.has("batch_keys_per_s") {
		ms = append(ms, b.batchMeasure(probes, cfg.ops(p.batch)))
	}
	b.turns(p.rounds, ms)
}

// chunk is a stretch of a stream: the seconds it took, the machine's speed
// around it, and the ops timed inside it.
type chunk struct {
	ops   []op
	secs  float64
	speed float64
	t     timings
}

// stream applies a write or mixed stream a chunk at a time, one op in
// sampleOne timed, the machine's speed read between chunks.
func (b *bench) stream(ops []op) []*chunk {
	size := min(writeChunk, b.cfg.ops(writeChunk))
	var chunks []*chunk
	before := b.sp.read()
	for at := 0; at < len(ops); at += size {
		c := &chunk{ops: ops[at:min(at+size, len(ops))]}
		c.secs = b.r.runSampled(c.ops, sampleOne, &c.t)
		after := b.sp.read()
		c.speed = (before + after) / 2
		before = after
		chunks = append(chunks, c)
	}
	return chunks
}

// rateOf is count(op) per second over the whole stream at reference speed:
// the total, not a median of chunks, because collector cycles and delta
// folds come every few chunks and a median would count them all or not at
// all. It also returns the total counted.
func rateOf(chunks []*chunk, count func(op) bool) (rate float64, total int) {
	var secs float64
	for _, c := range chunks {
		for _, o := range c.ops {
			if count(o) {
				total++
			}
		}
		secs += c.secs * c.speed
	}
	return float64(total) / secs, total
}

// p50Of is the median of the timed ops pick selects, each at the reference
// speed of its chunk, and their number.
func p50Of(chunks []*chunk, pick func(*timings) samples) (ns float64, total int) {
	var all []float64
	for _, c := range chunks {
		for _, t := range pick(&c.t) {
			all = append(all, float64(t)*c.speed)
		}
	}
	return median(all), len(all)
}

func lookupTimes(t *timings) samples { return t.lookup }
func writeTimes(t *timings) samples  { return t.write }

func isWrite(o op) bool { return o.kind == opInsert || o.kind == opDelete }
func anyOp(op) bool     { return true }

// writes applies a stream of writes for write_ops_per_s and write_ns_p50.
func (b *bench) writes(ops []op) {
	chunks := b.stream(ops)
	rate, n := rateOf(chunks, isWrite)
	b.rp.set("write_ops_per_s", rate, n)
	ns, n := p50Of(chunks, writeTimes)
	b.rp.set("write_ns_p50", ns, n)
}

// persist is how an in-memory workload comes by checkpoint_s and
// recover_s: it writes the workload's end state to a real directory as a
// fresh durable store (bulk load plus first full cut) and opens it again.
func (b *bench) persist() error {
	keys, vals := b.r.d.liveRun()
	var save, load []float64
	for rep := 0; rep < persistReps; rep++ {
		dir, err := b.dirs.next()
		if err != nil {
			return err
		}
		quiesce()
		var s stack
		save = append(save, b.timed(func() {
			s, err = newStack(kindDurableDir, keys, vals, dir, ioWrap{}, harnessPolicy)
		}))
		if err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return fmt.Errorf("close of persisted store: %w", err)
		}
		s = nil
		quiesce()
		var re *durableStack
		load = append(load, b.timed(func() { re, err = reopenDir(dir, ioWrap{}, harnessPolicy) }))
		if err != nil {
			return err
		}
		b.r.check(re.Len() == len(keys), "persisted store reopened with %d keys, want %d", re.Len(), len(keys))
		for i := 0; i < len(keys); i += len(keys)/1000 + 1 {
			v, ok := re.Lookup(keys[i])
			b.r.check(ok && v == vals[i], "persisted store lost key %d", keys[i])
		}
		if err := re.Close(); err != nil {
			return fmt.Errorf("close of reopened store: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.rp.set("checkpoint_s", median(save), persistReps)
	b.rp.set("recover_s", median(load), persistReps)
	return nil
}

// finish measures what is still missing, then checks and closes the stack.
func (b *bench) finish() error {
	rp, r := b.rp, b.r
	r.s.SyncFlush()
	quiesce()
	b.reads(closingReads, nil)
	if !rp.has("index_bytes") {
		rp.set("index_bytes", float64(r.s.Stats().IndexSize), 1)
	}
	if !rp.has("write_ops_per_s") {
		b.writes(b.g.writes(b.cfg.ops(burstOps), 10))
		r.s.SyncFlush()
	}
	if !rp.has("checkpoint_s") {
		if err := b.persist(); err != nil {
			return err
		}
	}

	// The end state: what the index holds, that it is sound, and what it
	// costs in memory — the heap with the stack minus the heap without.
	with := heapAlloc()
	n := r.s.Len()
	r.closeChecked()
	without := heapAlloc()
	rp.set("heap_bytes_per_key", (float64(with)-float64(without))/float64(n), n)
	return nil
}

func (b *bench) readOnly() error {
	if err := b.setup(kindOptimistic, holdReadOnly); err != nil {
		return err
	}
	b.reads(mainReads, nil)
	b.rp.set("ops_per_s", b.rp.values["lookup_ops_per_s"], int(b.rp.samples["lookup_ops_per_s"]))
	b.rp.set("index_bytes", float64(b.r.s.Stats().IndexSize), 1)
	return b.finish()
}

func (b *bench) ingest() error {
	if err := b.setup(kindOptimistic, holdWrites); err != nil {
		return err
	}
	b.writes(b.g.writes(b.cfg.ops(ingestOps), 10))
	b.rp.set("ops_per_s", b.rp.values["write_ops_per_s"], int(b.rp.samples["write_ops_per_s"]))
	b.r.s.SyncFlush()
	b.rp.set("index_bytes", float64(b.r.s.Stats().IndexSize), 1)
	// lookup_ops_per_s is the read-back: keys the stream inserted and did
	// not delete.
	back := make([]op, min(b.cfg.ops(readBackOps), len(b.g.inserted)))
	for i, j := range b.g.rng.Perm(len(b.g.inserted))[:len(back)] {
		back[i] = b.g.at(opLookup, b.g.inserted[j])
	}
	b.reads(closingReads, back)
	return b.finish()
}

func (b *bench) mixedRW() error {
	if err := b.setup(kindSharded, holdWrites); err != nil {
		return err
	}
	ops := b.g.mixed(b.cfg.ops(mixedOps), mixedRW)
	chunks := b.stream(ops)
	rate, n := rateOf(chunks, anyOp)
	b.rp.set("ops_per_s", rate, n)
	rate, n = rateOf(chunks, isWrite)
	b.rp.set("write_ops_per_s", rate, n)
	ns, n := p50Of(chunks, lookupTimes)
	b.rp.set("lookup_ns_p50", ns, n)
	ns, n = p50Of(chunks, writeTimes)
	b.rp.set("write_ns_p50", ns, n)
	return b.finish()
}

func (b *bench) durableIngest() error {
	if err := b.setup(kindDurableDir, holdWrites); err != nil {
		return err
	}
	r := b.r
	s := r.s.(*durableStack)
	ops := b.g.mixed(b.cfg.ops(durableOps)*(durableCuts+1), durableIngest)
	unsynced := b.g.writes(1+b.g.rng.Intn(durableUnsync), 0)

	// The stream, a checkpoint after every segment but the last (their
	// time is checkpoint_s, not the stream's), then the barrier that
	// acknowledges every op so far.
	var chunks []*chunk
	var cuts []float64
	for i, part := range split(ops, durableCuts+1) {
		chunks = append(chunks, b.stream(part)...)
		if i == durableCuts {
			break
		}
		var err error
		cuts = append(cuts, b.timed(func() { _, _, err = s.Checkpoint() }))
		r.check(err == nil, "checkpoint %d: %v", i, err)
	}
	start := time.Now()
	err := s.Sync()
	chunks[len(chunks)-1].secs += time.Since(start).Seconds()
	r.check(err == nil, "sync: %v", err)
	rate, n := rateOf(chunks, isWrite)
	b.rp.set("write_ops_per_s", rate, n)
	rate, n = rateOf(chunks, anyOp)
	b.rp.set("ops_per_s", rate, n)
	ns, n := p50Of(chunks, writeTimes)
	b.rp.set("write_ns_p50", ns, n)
	b.rp.set("checkpoint_s", median(cuts), len(cuts))

	// Up to 255 more writes that no Sync covers, then the crash: the
	// handle is dropped, not closed, and the unsynced bytes are discarded.
	acked := r.d.count
	r.run(unsynced)
	if err := b.crashStore(s); err != nil {
		return err
	}
	r.check(b.crash.fs.discarded > 0, "the crash discarded no unsynced log bytes")
	for _, o := range unsynced {
		r.d.live[o.idx] = false
	}
	r.d.count = acked

	// Recover the crashed image durableOpens times; the last stays open.
	var opens []float64
	for rep := 0; rep < durableOpens; rep++ {
		quiesce()
		b.crash = &crashIO{}
		var re *durableStack
		var err error
		opens = append(opens, b.timed(func() { re, err = reopenDir(b.dir, b.crash.wrap(), harnessPolicy) }))
		if err != nil {
			return err
		}
		r.s = re
		if rep == 0 {
			b.verifyRecovery(ops, unsynced)
		}
		if rep < durableOpens-1 {
			if err := b.crashStore(re); err != nil {
				return err
			}
		}
	}
	b.rp.set("recover_s", median(opens), len(opens))
	return b.finish()
}

// crashStore drops a durable stack the way a killed process would: no
// Close, no final checkpoint, unsynced bytes gone.
func (b *bench) crashStore(s *durableStack) error {
	b.r.s = nil
	if err := b.crash.crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	return s.closeDevice()
}

// verifyRecovery checks that every write a Sync covered is readable after
// the reopen and — the check of the check — that none of the writes after
// the last Sync is, which is what discarding their bytes must cause.
func (b *bench) verifyRecovery(stream, unsynced []op) {
	r := b.r
	r.check(r.s.Len() == r.d.count, "recovered %d keys, %d were acknowledged", r.s.Len(), r.d.count)
	for _, o := range stream {
		if o.kind == opInsert {
			r.do(op{kind: opLookup, idx: o.idx, key: o.key}, nil)
		}
	}
	for _, o := range unsynced {
		r.attempted++
		if _, ok := r.s.Lookup(o.key); ok {
			r.fail("key %d was written after the last Sync and survived the crash", o.key)
		}
	}
}

// runWorkload runs one workload untraced and returns its report and runner
// (for the failure account).
func runWorkload(cfg config) (*report, *runner, error) {
	b := &bench{cfg: cfg, rp: newReport(cfg.progress), sp: newSpeedometer(cfg.size)}
	root, err := os.MkdirTemp(cfg.tmp, cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	b.dirs.root = root
	defer os.RemoveAll(root)
	switch cfg.workload {
	case "read_only":
		err = b.readOnly()
	case "ingest":
		err = b.ingest()
	case "mixed_rw":
		err = b.mixedRW()
	case "durable_ingest":
		err = b.durableIngest()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b.rp.speeds = b.sp.reads
	return b.rp, b.r, err
}
