package hashx

import (
	"encoding/binary"
	"net/netip"
)

// The seeded 64-bit word hash behind the flow tables and the sketch tier:
// Mix folds one word in (xor, multiply by an odd constant, xorshift) and
// Fmix is splitmix64's finalizer, so every output bit depends on every
// input bit. For a fixed running hash, Mix is a bijection of the word.

// Mix folds the word w into the running hash h.
//
//ruru:noalloc
func Mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Fmix is splitmix64's finalizer.
//
//ruru:noalloc
func Fmix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// MixAddr folds an address in as two words: its bytes as AppendBinary
// writes them (4 for IPv4, 16 for IPv6), zero-padded to 16. AppendBinary
// fills a stack array where As16 would not: copying As16's returned array
// stalls store forwarding, which made an IPv6 FlowHash twice as slow. The
// error is always nil. A zoned address, which no parsed packet carries,
// hashes without its zone, at the cost of a heap copy.
//
//ruru:noalloc
func MixAddr(h uint64, a netip.Addr) uint64 {
	var b [16]byte
	_, _ = a.AppendBinary(b[:0])
	h = Mix(h, binary.LittleEndian.Uint64(b[:8]))
	return Mix(h, binary.LittleEndian.Uint64(b[8:]))
}
