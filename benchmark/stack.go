package main

// stack.go is the one file of the benchmark that names the library's public
// surface. Every other file drives the system through the stack interface
// and the few concrete accessors below, so a change to the facade API is a
// change to this file alone (made by a [benchmark] issue; see README.md).

import (
	"fmt"
	"os"
	"path/filepath"

	"fitingtree"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// stackKind names one rung of the layer ladder: each is the previous plus
// one layer of the repository.
type stackKind int

const (
	kindTree       stackKind = iota // bare Tree from BulkLoad
	kindOptimistic                  // + snapshot/delta facade
	kindSharded                     // + range sharding, 4 shards
	kindDurableMem                  // + WAL and checkpoints over MemFS + Disk, 2 shards
	kindDurableDir                  // same over DirFS + FileDisk in a real directory
)

var stackNames = [...]string{"tree", "optimistic", "sharded", "durable_mem", "durable_dir"}

func (k stackKind) String() string { return stackNames[k] }

const (
	shardedShards = 4
	durableShards = 2
	pagesFile     = "pages.db"
)

// stack is the client-visible surface every rung of the ladder shares.
type stack interface {
	Lookup(k uint64) (uint64, bool)
	Insert(k, v uint64) error
	Delete(k uint64) (bool, error)
	AscendRange(lo, hi uint64, fn func(k, v uint64) bool)
	LookupBatch(keys []uint64) ([]uint64, []bool)
	// SetAsyncFlush selects background (true) or inline (false) delta
	// folds; a no-op on the bare tree, which has neither.
	SetAsyncFlush(on bool)
	SyncFlush()
	Len() int
	Stats() fitingtree.Stats
	// Health is Err() on a durable stack, CheckInvariants() on the bare
	// tree, and nil elsewhere.
	Health() error
	Close() error
}

type treeStack struct {
	t *fitingtree.Tree[uint64, uint64]
}

func (s treeStack) Lookup(k uint64) (uint64, bool) { return s.t.Lookup(k) }
func (s treeStack) Insert(k, v uint64) error       { s.t.Insert(k, v); return nil }
func (s treeStack) Delete(k uint64) (bool, error)  { return s.t.Delete(k), nil }
func (s treeStack) AscendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	s.t.AscendRange(lo, hi, fn)
}
func (s treeStack) LookupBatch(keys []uint64) ([]uint64, []bool) { return s.t.LookupBatch(keys) }
func (s treeStack) SetAsyncFlush(bool)                           {}
func (s treeStack) SyncFlush()                                   {}
func (s treeStack) Len() int                                     { return s.t.Len() }
func (s treeStack) Stats() fitingtree.Stats                      { return s.t.Stats() }
func (s treeStack) Health() error                                { return s.t.CheckInvariants() }
func (s treeStack) Close() error                                 { return nil }

type optStack struct {
	o *fitingtree.Optimistic[uint64, uint64]
}

func (s optStack) Lookup(k uint64) (uint64, bool) { return s.o.Lookup(k) }
func (s optStack) Insert(k, v uint64) error       { s.o.Insert(k, v); return nil }
func (s optStack) Delete(k uint64) (bool, error)  { return s.o.Delete(k), nil }
func (s optStack) AscendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	s.o.AscendRange(lo, hi, fn)
}
func (s optStack) LookupBatch(keys []uint64) ([]uint64, []bool) { return s.o.LookupBatch(keys) }
func (s optStack) SetAsyncFlush(on bool)                        { s.o.SetAsyncFlush(on) }
func (s optStack) SyncFlush()                                   { s.o.SyncFlush() }
func (s optStack) Len() int                                     { return s.o.Len() }
func (s optStack) Stats() fitingtree.Stats                      { return s.o.Stats() }
func (s optStack) Health() error                                { return nil }
func (s optStack) Close() error                                 { s.o.Close(); return nil }

type shardedStack struct {
	s *fitingtree.Sharded[uint64, uint64]
}

func (s shardedStack) Lookup(k uint64) (uint64, bool) { return s.s.Lookup(k) }
func (s shardedStack) Insert(k, v uint64) error       { s.s.Insert(k, v); return nil }
func (s shardedStack) Delete(k uint64) (bool, error)  { return s.s.Delete(k), nil }
func (s shardedStack) AscendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	s.s.AscendRange(lo, hi, fn)
}
func (s shardedStack) LookupBatch(keys []uint64) ([]uint64, []bool) { return s.s.LookupBatch(keys) }
func (s shardedStack) SetAsyncFlush(on bool)                        { s.s.SetAsyncFlush(on) }
func (s shardedStack) SyncFlush()                                   { s.s.SyncFlush() }
func (s shardedStack) Len() int                                     { return s.s.Len() }
func (s shardedStack) Stats() fitingtree.Stats                      { return s.s.Stats() }
func (s shardedStack) Health() error                                { return nil }
func (s shardedStack) Close() error                                 { s.s.Close(); return nil }

// durableStack owns the device it was opened over; the WAL file system
// needs no closing.
type durableStack struct {
	d       *fitingtree.DurableSharded[uint64, uint64]
	fileDev *pager.FileDisk // nil over the in-memory disk
}

func (s *durableStack) Lookup(k uint64) (uint64, bool) { return s.d.Lookup(k) }
func (s *durableStack) Insert(k, v uint64) error       { return s.d.Insert(k, v) }
func (s *durableStack) Delete(k uint64) (bool, error)  { return s.d.Delete(k) }
func (s *durableStack) AscendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	s.d.AscendRange(lo, hi, fn)
}
func (s *durableStack) LookupBatch(keys []uint64) ([]uint64, []bool) { return s.d.LookupBatch(keys) }
func (s *durableStack) SetAsyncFlush(on bool)                        { s.d.SetAsyncFlush(on) }
func (s *durableStack) SyncFlush()                                   { s.d.SyncFlush() }
func (s *durableStack) Len() int                                     { return s.d.Len() }
func (s *durableStack) Stats() fitingtree.Stats                      { return s.d.Stats() }
func (s *durableStack) Health() error                                { return s.d.Err() }

func (s *durableStack) Close() error {
	err := s.d.Close()
	if cerr := s.closeDevice(); err == nil {
		err = cerr
	}
	return err
}

// closeDevice releases the page file without the facade's final
// checkpoint: what a crash leaves behind.
func (s *durableStack) closeDevice() error {
	if s.fileDev == nil {
		return nil
	}
	return s.fileDev.Close()
}

// Sync is the cross-shard group-commit barrier.
func (s *durableStack) Sync() error { return s.d.Sync() }

// Checkpoint commits one cross-shard cut and reports the chunks it wrote
// and carried over.
func (s *durableStack) Checkpoint() (written, reused int, err error) {
	st, err := s.d.Checkpoint()
	return st.ChunksWritten, st.ChunksReused, err
}

// ioWrap lets a caller put its own wrappers (crash discard, timing)
// between the durable facade and the storage it runs on.
type ioWrap struct {
	fs  func(wal.FS, string) wal.FS // gets the directory ("" in memory)
	dev func(pager.Device) pager.Device
}

func (w ioWrap) wrapFS(fsys wal.FS, dir string) wal.FS {
	if w.fs == nil {
		return fsys
	}
	return w.fs(fsys, dir)
}

func (w ioWrap) wrapDev(dev pager.Device) pager.Device {
	if w.dev == nil {
		return dev
	}
	return w.dev(dev)
}

// durablePolicy is the flush policy of a durable stack; the other stacks
// ignore it.
type durablePolicy struct {
	syncEvery      int  // writes per group commit and shard; 0 keeps the library's 1
	autoCheckpoint bool // the library's default is true; false leaves Checkpoint to the harness
}

// harnessPolicy is the stated policy of durable_ingest: group commit of
// 256 per shard and harness-driven checkpoints, so that counts repeat.
var harnessPolicy = durablePolicy{syncEvery: 256, autoCheckpoint: false}

func (s *durableStack) apply(p durablePolicy) {
	if p.syncEvery > 0 {
		s.d.SetSyncEvery(p.syncEvery)
	}
	s.d.SetAutoCheckpoint(p.autoCheckpoint)
}

// newStack bulk-loads keys/vals with the library's default options and
// wraps the tree in the facade kind names. dir is used by kindDurableDir
// only and must exist and be empty.
func newStack(kind stackKind, keys, vals []uint64, dir string, w ioWrap, p durablePolicy) (stack, error) {
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{})
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	switch kind {
	case kindTree:
		return treeStack{t}, nil
	case kindOptimistic:
		return optStack{fitingtree.NewOptimistic(t)}, nil
	case kindSharded:
		s, err := fitingtree.NewSharded(t, shardedShards)
		if err != nil {
			return nil, fmt.Errorf("new sharded: %w", err)
		}
		return shardedStack{s}, nil
	case kindDurableMem:
		d, err := fitingtree.CreateDurableSharded[uint64, uint64](
			w.wrapFS(wal.NewMemFS(), ""), w.wrapDev(pager.NewDisk()), t, durableShards)
		if err != nil {
			return nil, fmt.Errorf("create durable (memory): %w", err)
		}
		s := &durableStack{d: d}
		s.apply(p)
		return s, nil
	case kindDurableDir:
		fsys, dev, err := openDir(dir)
		if err != nil {
			return nil, err
		}
		d, err := fitingtree.CreateDurableSharded[uint64, uint64](
			w.wrapFS(fsys, dir), w.wrapDev(dev), t, durableShards)
		if err != nil {
			dev.Close()
			return nil, fmt.Errorf("create durable (%s): %w", dir, err)
		}
		s := &durableStack{d: d, fileDev: dev}
		s.apply(p)
		return s, nil
	}
	return nil, fmt.Errorf("unknown stack kind %d", kind)
}

// reopenDir recovers the durable store left in dir: newest committed cut
// plus the WAL tails.
func reopenDir(dir string, w ioWrap, p durablePolicy) (*durableStack, error) {
	fsys, dev, err := openDir(dir)
	if err != nil {
		return nil, err
	}
	d, err := fitingtree.OpenDurableSharded[uint64, uint64](
		w.wrapFS(fsys, dir), w.wrapDev(dev), fitingtree.Options{}, durableShards)
	if err != nil {
		dev.Close()
		return nil, fmt.Errorf("open durable (%s): %w", dir, err)
	}
	s := &durableStack{d: d, fileDev: dev}
	s.apply(p)
	return s, nil
}

func openDir(dir string) (*wal.DirFS, *pager.FileDisk, error) {
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal dir %s: %w", dir, err)
	}
	dev, err := pager.OpenFileDisk(filepath.Join(dir, pagesFile))
	if err != nil {
		return nil, nil, fmt.Errorf("page file in %s: %w", dir, err)
	}
	return fsys, dev, nil
}

// storeDirs hands out fresh, empty directories for durable stores under one
// root.
type storeDirs struct {
	root string
	made int
}

func (d *storeDirs) next() (string, error) {
	d.made++
	dir := filepath.Join(d.root, fmt.Sprintf("store-%d", d.made))
	return dir, os.MkdirAll(dir, 0o755)
}

// dirBytes is the size of the store at rest: every file in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
