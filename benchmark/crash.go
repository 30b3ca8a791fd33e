package main

// crash.go holds the two wrappers that make a crash on a real directory
// mean what it means on wal.MemFS: everything written since the last Sync
// is gone. Dropping the facade's handles is not enough, because the bytes
// sit in the operating system's cache and a reopen would read them back.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

var errCrashed = errors.New("benchmark: storage used after Crash")

// crashFS tracks, per file of a directory, how many bytes were written and
// how many of them a Sync covered. Writes go straight through, so that each
// log append still costs its write call inside the operation that made it;
// Crash truncates every file back to its synced length, which drops the
// unsynced bytes from the page cache as a power cut would.
type crashFS struct {
	inner wal.FS
	dir   string

	mu        sync.Mutex
	files     map[string]*crashFile
	open      map[*crashHandle]struct{}
	dead      bool
	discarded int64 // bytes Crash dropped
}

type crashFile struct {
	written, synced int64
}

func newCrashFS(inner wal.FS, dir string) *crashFS {
	return &crashFS{
		inner: inner,
		dir:   dir,
		files: make(map[string]*crashFile),
		open:  make(map[*crashHandle]struct{}),
	}
}

// alive reports whether the file system may still be used. Callers hold mu.
func (c *crashFS) alive() error {
	if c.dead {
		return errCrashed
	}
	return nil
}

func (c *crashFS) handle(f wal.File, cf *crashFile) *crashHandle {
	h := &crashHandle{fs: c, f: f, file: cf}
	c.open[h] = struct{}{}
	return h
}

func (c *crashFS) Create(name string) (wal.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.alive(); err != nil {
		return nil, err
	}
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{}
	c.files[name] = cf
	return c.handle(f, cf), nil
}

func (c *crashFS) Append(name string) (wal.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.alive(); err != nil {
		return nil, err
	}
	f, err := c.inner.Append(name)
	if err != nil {
		return nil, err
	}
	cf, ok := c.files[name]
	if !ok {
		// Content that was there before this wrapper existed survived
		// whatever came before: it counts as synced.
		var size int64
		if info, err := os.Stat(filepath.Join(c.dir, name)); err == nil {
			size = info.Size()
		}
		cf = &crashFile{written: size, synced: size}
		c.files[name] = cf
	}
	return c.handle(f, cf), nil
}

func (c *crashFS) Open(name string) (io.ReadCloser, error) {
	c.mu.Lock()
	err := c.alive()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c.inner.Open(name)
}

func (c *crashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.alive(); err != nil {
		return err
	}
	delete(c.files, name)
	return c.inner.Remove(name)
}

func (c *crashFS) Rename(oldname, newname string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.alive(); err != nil {
		return err
	}
	if err := c.inner.Rename(oldname, newname); err != nil {
		return err
	}
	if cf, ok := c.files[oldname]; ok {
		delete(c.files, oldname)
		c.files[newname] = cf
	}
	return nil
}

// Crash discards every unsynced byte, closes the handles the crashed
// process would have lost, and refuses all further use.
func (c *crashFS) Crash() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	for h := range c.open {
		h.f.Close() // the handle dies with the process; nothing to report
	}
	c.open = nil
	var first error
	for name, cf := range c.files {
		if cf.written == cf.synced {
			continue
		}
		if err := os.Truncate(filepath.Join(c.dir, name), cf.synced); err != nil && first == nil {
			first = err
		}
		c.discarded += cf.written - cf.synced
	}
	return first
}

type crashHandle struct {
	fs   *crashFS
	f    wal.File
	file *crashFile
}

func (h *crashHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.alive(); err != nil {
		return 0, err
	}
	n, err := h.f.Write(p)
	h.file.written += int64(n)
	return n, err
}

func (h *crashHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.alive(); err != nil {
		return err
	}
	if err := h.f.Sync(); err != nil {
		return err
	}
	h.file.synced = h.file.written
	return nil
}

func (h *crashHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.dead {
		return nil // Crash closed it already
	}
	delete(h.fs.open, h)
	return h.f.Close()
}

// crashDev holds page writes back until Sync and forgets them on Crash.
// Pages are written in place, so unlike a log there is no length to
// truncate back to; the checkpoint's shadow pages reach the file when its
// Sync does, in the order they were written.
type crashDev struct {
	inner pager.Device

	mu        sync.Mutex
	pending   map[pager.PageID][]byte
	order     []pager.PageID
	dead      bool
	discarded int64 // page writes Crash dropped
}

func newCrashDev(inner pager.Device) *crashDev {
	return &crashDev{inner: inner, pending: make(map[pager.PageID][]byte)}
}

func (d *crashDev) Allocate() pager.PageID { return d.inner.Allocate() }
func (d *crashDev) NumPages() int          { return d.inner.NumPages() }

func (d *crashDev) Read(id pager.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return errCrashed
	}
	if p, ok := d.pending[id]; ok {
		copy(buf, p)
		return nil
	}
	return d.inner.Read(id, buf)
}

func (d *crashDev) Write(id pager.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return errCrashed
	}
	p, ok := d.pending[id]
	if !ok {
		p = make([]byte, pager.PageSize)
		d.order = append(d.order, id)
	}
	clear(p[copy(p, buf):])
	d.pending[id] = p
	return nil
}

func (d *crashDev) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return errCrashed
	}
	for _, id := range d.order {
		if err := d.inner.Write(id, d.pending[id]); err != nil {
			return err
		}
	}
	if err := d.inner.Sync(); err != nil {
		return err
	}
	d.order = d.order[:0]
	clear(d.pending)
	return nil
}

func (d *crashDev) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = true
	d.discarded += int64(len(d.order))
	d.order, d.pending = nil, nil
}
