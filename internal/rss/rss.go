// Package rss implements Receive Side Scaling hashing in software: the
// Toeplitz hash from the Microsoft RSS specification, computed over the IP
// 4-tuple exactly as a NIC computes it when dispatching packets to receive
// queues.
//
// Ruru (§2) configures *symmetric* RSS so both directions of a TCP flow land
// on the same queue — the SYN (C→S) and the SYN-ACK (S→C) must reach the same
// per-queue hash table or the handshake can never be matched without costly
// cross-core communication. Symmetry is obtained with the Woo/Zilberman key:
// the 16-bit pattern 0x6d5a repeated across the 40-byte key, which makes
// hash(src,dst,sport,dport) == hash(dst,src,dport,sport).
//
// The asymmetric (default Microsoft) key is also provided for the ablation
// in TestSymmetricRSSIsTheDesignRequirement, which shows the handshakes
// lost when the two directions are scattered across queues.
package rss

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// KeyLen is the RSS secret key length in bytes (the standard 40-byte key
// covers IPv6 4-tuples: 16+16+2+2 + 4 spare).
const KeyLen = 40

// SymmetricKey is the 0x6d5a-repeating key that makes the Toeplitz hash
// symmetric in (src,dst) and (sport,dport).
var SymmetricKey = [KeyLen]byte{
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
}

// MicrosoftKey is the default asymmetric key from the Microsoft RSS
// specification (as shipped by ixgbe/i40e drivers). Used for the ablation.
var MicrosoftKey = [KeyLen]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// foldLen is how many leading input bytes see only real key bits: from byte
// 36 on, a byte's 32-bit windows run past the end of the 40-byte key into
// its zero padding. It is also the length of the longest 4-tuple (IPv6).
const foldLen = KeyLen - 4

// Hasher computes Toeplitz hashes with a fixed key. Construct with New; a
// Hasher is immutable and safe for concurrent use.
//
// The hash is linear over GF(2): the hash of an input is the XOR of what
// each of its bytes contributes at its position, and what a byte
// contributes is the XOR of what its set bits do. So New tabulates, for
// every byte position the key covers, the contribution of every byte value,
// and Hash is one load and one XOR per input byte — bit-identical to the
// bit-serial definition in the RSS specification.
type Hasher struct {
	tab [KeyLen][256]uint32
	// fold is set when the key repeats every 16 bits (the symmetric key):
	// positions 0, 2, 4, … then share one table and positions 1, 3, 5, …
	// another, and by the same linearity the hash is those two tables
	// looked up at the XOR of the even-position bytes and the XOR of the
	// odd-position bytes. Holds for the first foldLen positions only.
	fold bool
}

// symmetric is the one Hasher every symmetric-key user shares.
var symmetric = New(SymmetricKey)

// New returns a Hasher using the given 40-byte key. It costs a few
// microseconds (10240 XORs into 40 KiB of tables); share the result.
func New(key [KeyLen]byte) *Hasher {
	h := &Hasher{}
	var padded [KeyLen + 4]byte // the windows of byte 39 reach key bit 351
	copy(padded[:], key[:])
	for i := range h.tab {
		// span is the 39 key bits the eight windows of input byte i cover,
		// left-aligned: window j (for input bit j, MSB first) is key bits
		// [8i+j, 8i+j+32).
		span := uint64(padded[i])<<56 | uint64(padded[i+1])<<48 | uint64(padded[i+2])<<40 |
			uint64(padded[i+3])<<32 | uint64(padded[i+4])<<24
		t := &h.tab[i]
		for v := 1; v < 256; v++ {
			// A value's entry is the entry of the value without its lowest
			// set bit, XOR that bit's window.
			low := v & -v
			j := 7 - bits.TrailingZeros8(uint8(low))
			t[v] = t[v&^low] ^ uint32(span<<uint(j)>>32)
		}
	}
	h.fold = true
	for i := 2; i < foldLen && h.fold; i++ {
		h.fold = h.tab[i] == h.tab[i-2]
	}
	return h
}

// NewSymmetric returns the Hasher with the symmetric 0x6d5a key, the
// configuration Ruru uses in production. Every call returns the same shared
// Hasher.
func NewSymmetric() *Hasher { return symmetric }

// Hash computes the Toeplitz hash of input per the Microsoft RSS spec: for
// each set bit i (MSB-first) of the input, XOR in the 32-bit window of the
// key starting at bit i, the key zero-extended past its 40 bytes. Input
// bytes from the 41st on therefore contribute nothing.
//
//ruru:noalloc
func (h *Hasher) Hash(input []byte) uint32 {
	if len(input) > KeyLen {
		input = input[:KeyLen]
	}
	var (
		result uint32
		i      int
	)
	if h.fold {
		n := min(len(input), foldLen)
		var acc uint64
		for ; i+8 <= n; i += 8 {
			acc ^= binary.BigEndian.Uint64(input[i:])
		}
		if i+4 <= n {
			acc ^= uint64(binary.BigEndian.Uint32(input[i:]))
			i += 4
		}
		if i+2 <= n {
			acc ^= uint64(binary.BigEndian.Uint16(input[i:]))
			i += 2
		}
		if i < n {
			acc ^= uint64(input[i]) << 8
			i++
		}
		// Every load put even-position bytes at bits 8–15 modulo 16 and
		// odd-position bytes at bits 0–7 modulo 16; two halvings XOR each
		// class down to one byte.
		acc ^= acc >> 32
		acc ^= acc >> 16
		result = h.tab[0][byte(acc>>8)] ^ h.tab[1][byte(acc)]
	}
	for ; i < len(input); i++ {
		result ^= h.tab[i][input[i]]
	}
	return result
}

// HashTuple computes the RSS hash of an IPv4/IPv6 4-tuple. The layout matches
// hardware RSS input: src addr, dst addr, src port, dst port, all big-endian.
// A pair of IPv4-mapped IPv6 addresses hashes as the IPv4 pair it maps.
//
//ruru:noalloc
func (h *Hasher) HashTuple(src, dst netip.Addr, srcPort, dstPort uint16) uint32 {
	var buf [36]byte
	var n int
	if s, d := src.Unmap(), dst.Unmap(); s.Is4() && d.Is4() {
		a, b := s.As4(), d.As4()
		copy(buf[0:4], a[:])
		copy(buf[4:8], b[:])
		n = 8
	} else {
		a, b := src.As16(), dst.As16()
		copy(buf[0:16], a[:])
		copy(buf[16:32], b[:])
		n = 32
	}
	buf[n] = byte(srcPort >> 8)
	buf[n+1] = byte(srcPort)
	buf[n+2] = byte(dstPort >> 8)
	buf[n+3] = byte(dstPort)
	return h.Hash(buf[:n+4])
}

// Queue maps a hash to one of n receive queues the way NIC indirection
// tables do (modulo over the low bits).
//
// Note a structural limit of the symmetric 0x6d5a key: because the key
// repeats with a 16-bit period, the Toeplitz hash is a linear function of
// the 16-bit XOR-fold of the tuple bytes — 16 bits of effective entropy,
// and adversarially structured tuples (e.g. srcPort and address
// incrementing together) can fold to a single value, putting every flow on
// one queue. No indirection mapping can spread identical hashes; sources
// that must not lose packets under such skew should run the port's Block
// overflow policy instead.
func Queue(hash uint32, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hash % uint32(n))
}
