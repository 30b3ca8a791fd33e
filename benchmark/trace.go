package main

// trace.go records spans from outside the library: a root span per client
// operation or harness call, and child spans from timing wrappers the
// harness puts under the WAL and under the page store. Nothing in the
// library is instrumented. The wrappers also keep the counts the per-layer
// I/O metrics are made of, taken at the same boundary as the spans.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// maxSpans bounds the spans kept (and written): a traced run makes a few
// million, and the first two hundred thousand show every kind of nesting.
// Per-name counts and total time cover all of them.
const maxSpans = 200_000

const backgroundSpan = 1 // id of the span that parents I/O no call caused

type span struct {
	ID     int32
	Parent int32 // 0 for a root
	Name   string
	Op     int64 // client op id, shared by a root and its children; -1 outside an op
	Start  int64 // ns since the trace began
	End    int64
}

type spanTotal struct {
	Count int64
	Ns    int64
}

// tracer keeps spans in memory until the run ends. There is one client, so
// "the call in flight" is one variable: I/O seen by a wrapper while it is
// set belongs to that call, whichever goroutine performs it.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int32
	cur     int32 // span of the call in flight, 0 when none
	curOp   int64
	curFrom int64
	totals  map[string]*spanTotal
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), totals: make(map[string]*spanTotal), nextID: backgroundSpan, curOp: -1}
	t.spans = append(t.spans, span{ID: backgroundSpan, Name: "background", Op: -1})
	return t
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add stores a finished span if there is room and always counts it.
// Callers hold mu.
func (t *tracer) add(s span) {
	tot := t.totals[s.Name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[s.Name] = tot
	}
	tot.Count++
	tot.Ns += s.End - s.Start
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// begin opens the root span of a client op (op >= 0) or a harness call
// (op < 0) and makes it the call in flight. Calls do not nest.
func (t *tracer) begin(op int64) {
	if t == nil {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.nextID++
	t.cur, t.curOp, t.curFrom = t.nextID, op, now
	t.mu.Unlock()
}

// end closes the call in flight under name.
func (t *tracer) end(name string) {
	if t == nil {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.add(span{ID: t.cur, Name: name, Op: t.curOp, Start: t.curFrom, End: now})
	t.cur, t.curOp = 0, -1
	t.mu.Unlock()
}

// child records finished I/O under the call in flight, or under the
// background span when no call is or when the I/O began before the call.
func (t *tracer) child(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	from := t.since(start)
	t.mu.Lock()
	t.nextID++
	s := span{ID: t.nextID, Parent: backgroundSpan, Name: name, Op: -1, Start: from, End: from + d.Nanoseconds()}
	if t.cur != 0 && from >= t.curFrom {
		s.Parent, s.Op = t.cur, t.curOp
	}
	t.add(s)
	t.mu.Unlock()
}

// instant records an event with no duration.
func (t *tracer) instant(name string) {
	t.child(name, time.Now(), 0)
}

// finish closes the background span and returns the kept spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[0].End = t.since(time.Now())
	return t.spans
}

// writeSpanFile writes spans one JSON object a line. A root span is stored when
// its call ends, so it follows its children.
func writeSpanFile(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"op":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Op, s.Start, s.End); err != nil {
			return err
		}
	}
	return w.Flush()
}

// checkNesting reports the first child span that is not inside its parent.
// A root op's span is stored when the op ends, after its children, so the
// lookup is by id.
func checkNesting(spans []span) error {
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue // the parent fell past maxSpans
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// totalNames lists the span names seen, sorted.
func (t *tracer) totalNames() []string {
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ioStats are the counts taken at the storage boundary.
type ioStats struct {
	walWrites, walBytes, walWriteNs atomic.Int64
	walSyncs, walSyncNs             atomic.Int64

	pageReads, pageWrites, pageSyncs atomic.Int64
	pageWriteNs                      atomic.Int64
}

// ioCounts is a reading of ioStats.
type ioCounts struct {
	walWrites, walBytes, walWriteNs, walSyncs, walSyncNs int64
	pageReads, pageWrites, pageSyncs, pageWriteNs        int64
}

func (s *ioStats) counts() ioCounts {
	return ioCounts{
		walWrites: s.walWrites.Load(), walBytes: s.walBytes.Load(), walWriteNs: s.walWriteNs.Load(),
		walSyncs: s.walSyncs.Load(), walSyncNs: s.walSyncNs.Load(),
		pageReads: s.pageReads.Load(), pageWrites: s.pageWrites.Load(), pageSyncs: s.pageSyncs.Load(),
		pageWriteNs: s.pageWriteNs.Load(),
	}
}

func (a ioCounts) minus(b ioCounts) ioCounts {
	return ioCounts{
		walWrites: a.walWrites - b.walWrites, walBytes: a.walBytes - b.walBytes, walWriteNs: a.walWriteNs - b.walWriteNs,
		walSyncs: a.walSyncs - b.walSyncs, walSyncNs: a.walSyncNs - b.walSyncNs,
		pageReads: a.pageReads - b.pageReads, pageWrites: a.pageWrites - b.pageWrites, pageSyncs: a.pageSyncs - b.pageSyncs,
		pageWriteNs: a.pageWriteNs - b.pageWriteNs,
	}
}

// timedIO returns wrappers that count and time every storage call into st
// and, when tr is not nil, record it as a span.
func timedIO(st *ioStats, tr *tracer) ioWrap {
	return ioWrap{
		fs:  func(fsys wal.FS, _ string) wal.FS { return &timedFS{FS: fsys, st: st, tr: tr} },
		dev: func(dev pager.Device) pager.Device { return &timedDev{Device: dev, st: st, tr: tr} },
	}
}

// under composes two wrappers: outer sits nearer the library.
func (w ioWrap) under(outer ioWrap) ioWrap {
	return ioWrap{
		fs:  func(fsys wal.FS, dir string) wal.FS { return outer.wrapFS(w.wrapFS(fsys, dir), dir) },
		dev: func(dev pager.Device) pager.Device { return outer.wrapDev(w.wrapDev(dev)) },
	}
}

type timedFS struct {
	wal.FS
	st *ioStats
	tr *tracer
}

func (t *timedFS) Create(name string) (wal.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) Append(name string) (wal.File, error) {
	f, err := t.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

type timedFile struct {
	wal.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	st := f.fs.st
	st.walWrites.Add(1)
	st.walBytes.Add(int64(n))
	st.walWriteNs.Add(d.Nanoseconds())
	f.fs.tr.child("wal.write", start, d)
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.st.walSyncs.Add(1)
	f.fs.st.walSyncNs.Add(d.Nanoseconds())
	f.fs.tr.child("wal.sync", start, d)
	return err
}

type timedDev struct {
	pager.Device
	st *ioStats
	tr *tracer
}

func (t *timedDev) Read(id pager.PageID, buf []byte) error {
	start := time.Now()
	err := t.Device.Read(id, buf)
	d := time.Since(start)
	t.st.pageReads.Add(1)
	t.tr.child("pager.read", start, d)
	return err
}

func (t *timedDev) Write(id pager.PageID, buf []byte) error {
	start := time.Now()
	err := t.Device.Write(id, buf)
	d := time.Since(start)
	t.st.pageWrites.Add(1)
	t.st.pageWriteNs.Add(d.Nanoseconds())
	t.tr.child("pager.write", start, d)
	return err
}

func (t *timedDev) Sync() error {
	start := time.Now()
	err := t.Device.Sync()
	d := time.Since(start)
	t.st.pageSyncs.Add(1)
	t.tr.child("pager.sync", start, d)
	return err
}
