//go:build unix

package nic

import "syscall"

// allocArena returns n zeroed bytes for packet buffers from an anonymous
// private mapping: memory the Go collector neither scans nor counts toward
// its heap goal (rte_mempool keeps its mbufs in hugepage memory for the
// same reason), and of which only the pages a buffer has touched are ever
// resident. It falls back to the Go heap when the kernel refuses; mapped
// says which one the caller got.
func allocArena(n int) (mem []byte, mapped bool) {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), false
	}
	return mem, true
}

// freeArena unmaps an arena allocArena mapped.
func freeArena(mem []byte) error { return syscall.Munmap(mem) }
