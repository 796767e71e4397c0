//go:build linux

package seglog

import (
	"os"
	"syscall"
)

// fdatasync makes a file's DATA durable without forcing a metadata-only
// journal commit (ext4 still syncs the size change when the file grew —
// exactly what a growing log segment needs). Measurably cheaper than
// fsync on the append path; see the wal/write-interval bench entry / E13.
func fdatasync(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}
