//go:build !linux

package seglog

import "os"

// fdatasync falls back to a full fsync where the syscall is unavailable.
func fdatasync(f *os.File) error {
	return f.Sync()
}
