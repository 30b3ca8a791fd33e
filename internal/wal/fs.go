// Package wal implements a checksummed, length-prefixed write-ahead log
// over a pluggable flat-namespace file system.
//
// The log is the durability half of the repository's checkpoint+WAL
// protocol (see docs/ARCHITECTURE.md): every acknowledged write is first
// appended as one framed record, counted against its Group's batch
// (Commit), synced on the caller or in the background (SyncBehind), and
// replayed after a crash on top of the latest checkpoint.
// Records carry explicit log sequence numbers (LSNs) so a replay can skip
// the prefix a checkpoint already folded in, and a CRC over every frame so
// a torn tail is cut at the last intact record instead of being decoded
// into garbage.
//
// The file abstraction is deliberately tiny — create, open, append,
// rename, remove — so the same log runs over a real directory (DirFS), an
// in-memory store with crash semantics (MemFS, which distinguishes synced
// from merely written bytes), and a deterministic fault injector (FaultFS)
// that trips an error or a torn write at the Nth operation. The crash
// matrix in the recovery tests is driven entirely through these
// implementations.
package wal

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is a writable log file handle. Write buffers data with no
// durability promise; Sync is the barrier that makes everything written so
// far survive a crash.
type File interface {
	io.Writer
	// Sync makes all preceding writes durable.
	Sync() error
	// Close releases the handle without any durability promise.
	Close() error
}

// FS is the flat-namespace durable store a log lives in. Implementations
// must make Rename atomic with respect to crashes: after a crash the name
// refers to either the old or the new content, never a mixture.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if missing.
	Append(name string) (File, error)
	// Open opens name for reading. A missing name reports an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	Open(name string) (io.ReadCloser, error)
	// Remove deletes name; removing a missing name is not an error.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
}

// DirFS is an FS over a real directory. Renames are fsynced through the
// directory handle so they survive a crash once Rename returns.
type DirFS struct {
	dir string
}

// NewDirFS returns an FS rooted at dir, creating the directory if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirFS{dir: dir}, nil
}

// path resolves a flat name inside the root directory.
func (d *DirFS) path(name string) string { return filepath.Join(d.dir, name) }

// Create opens name for writing, truncating any existing content.
func (d *DirFS) Create(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

// Append opens name for appending, creating it if missing.
func (d *DirFS) Append(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Open opens name for reading.
func (d *DirFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(d.path(name))
}

// Remove deletes name; a missing name is not an error.
func (d *DirFS) Remove(name string) error {
	err := os.Remove(d.path(name))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// Rename atomically replaces newname with oldname's content and fsyncs the
// directory so the swap survives a crash.
func (d *DirFS) Rename(oldname, newname string) error {
	if err := os.Rename(d.path(oldname), d.path(newname)); err != nil {
		return err
	}
	return d.syncDir()
}

// syncDir fsyncs the root directory, making completed renames durable.
func (d *DirFS) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some platforms; a sync error still
	// means the rename may not be durable, so it is reported.
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// MemFS is an in-memory FS with explicit crash semantics: each file tracks
// how many of its bytes have been covered by a Sync, and Crash truncates
// every file back to its synced prefix — exactly the data loss an OS page
// cache permits. It is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is one in-memory file: data holds everything written, synced the
// prefix guaranteed to survive Crash.
type memFile struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Create opens name for writing, truncating any existing content.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

// Append opens name for appending, creating it if missing.
func (m *MemFS) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

// Open opens name for reading a snapshot of its current content.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memReader{data: append([]byte(nil), f.data...)}, nil
}

// Remove deletes name; a missing name is not an error.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// Rename atomically replaces newname with oldname's content. The rename is
// modeled as immediately durable (a journaled file system's fsynced
// rename); torn renames are not part of the crash model.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	// A rename implies the content is what the caller wants visible after
	// a crash; callers sync before renaming, so mark everything synced.
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Crash simulates a process/OS crash: every file loses the bytes written
// after its last Sync. Open handles remain usable but continue to write to
// the truncated file (tests do not reuse them).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.data = f.data[:f.synced]
	}
}

// Bytes returns a copy of name's current content (synced or not), or nil
// when the file does not exist. It is a test hook for corruption
// scenarios.
func (m *MemFS) Bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), f.data...)
}

// SetBytes replaces name's content (marked fully synced). It is a test
// hook for planting corrupted files.
func (m *MemFS) SetBytes(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
}

// memHandle is a write handle into a MemFS file.
type memHandle struct {
	fs   *MemFS
	name string
}

// Write appends p to the file without any durability promise.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, ok := h.fs.files[h.name]
	if !ok {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrNotExist}
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

// Sync marks everything written so far as surviving a Crash.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if f, ok := h.fs.files[h.name]; ok {
		f.synced = len(f.data)
	}
	return nil
}

// Close releases the handle; buffered state is already in the MemFS.
func (h *memHandle) Close() error { return nil }

// memReader reads a point-in-time copy of a MemFS file.
type memReader struct {
	data []byte
	at   int
}

// Read implements io.Reader over the snapshot.
func (r *memReader) Read(p []byte) (int, error) {
	if r.at >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.at:])
	r.at += n
	return n, nil
}

// Close implements io.Closer.
func (r *memReader) Close() error { return nil }

// Names returns the sorted names of all files (test diagnostic).
func (m *MemFS) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
