//go:build linux

package tsdb

import (
	"os"
	"syscall"
)

// fdatasync makes a file's DATA durable without forcing a metadata-only
// journal commit (ext4 still syncs the size change when the file grew —
// exactly what a growing WAL segment needs). Measurably cheaper than
// fsync on the WAL hot path; see the wal/write-interval bench entry / E13.
func fdatasync(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}
