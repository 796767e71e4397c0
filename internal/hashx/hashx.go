// Package hashx holds tiny allocation-free hash helpers shared by the hot
// paths (stdlib hash/fnv works through a heap-allocated hash.Hash32, which
// the per-measurement paths cannot afford).
package hashx

// FNV1a32 is the 32-bit FNV-1a hash of s. Used to partition series across
// TSDB lock stripes and measurements across sink workers.
func FNV1a32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// FNV1a32Bytes is FNV1a32 over a byte slice, for hot paths that build keys
// in a reusable scratch buffer and must not materialize a string just to
// hash it. Produces the same hash as FNV1a32 on equal bytes.
func FNV1a32Bytes(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}
