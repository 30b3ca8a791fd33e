//go:build !(linux && (amd64 || arm64))

package pager

import "os"

// writeBehind is a no-op where the page file's writeback cannot be started
// ahead of Sync.
func writeBehind(*os.File, int64, int64) {}
