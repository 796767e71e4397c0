//go:build !unix

package nic

// allocArena returns n zeroed bytes for packet buffers from the Go heap,
// where there is no anonymous mapping to take them from.
func allocArena(n int) (mem []byte, mapped bool) { return make([]byte, n), false }

// freeArena has nothing to unmap.
func freeArena([]byte) error { return nil }
