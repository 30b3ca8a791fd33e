//go:build linux && (amd64 || arm64)

package pager

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages without waiting for it.
const syncFileRangeWrite = 0x2

// writeBehind starts writeback of n bytes at off, so that the next fsync
// finds less to do. It is advisory: its error is ignored, and durability is
// still only what Sync promises.
func writeBehind(f *os.File, off, n int64) {
	if rc, err := f.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) { syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite) })
	}
}
