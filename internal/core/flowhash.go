package core

import (
	"net/netip"

	"ruru/internal/hashx"
	"ruru/internal/pkt"
)

// FlowHash is the seeded 64-bit hash of a TCP packet's flow, the same for
// both directions: the seeded hashes of the two (address, port) endpoints
// are summed, and the sum goes through one finalizer, so no canonical
// ordering of the endpoints is needed. Each queue hashes every TCP packet
// once with its own random seed, and that one value indexes the queue's
// flow tables and its sketch tier.
//
// The seed is secret and per queue because the tables are open-addressed:
// the NIC's Toeplitz value is a linear function of the tuple's 16-bit
// XOR-fold, so crafted tuples with one fold would share one probe chain.
//
//ruru:noalloc
func FlowHash(seed uint64, s *pkt.Summary) uint64 {
	return FlowHashOf(seed, s.Src(), s.TCP.SrcPort, s.Dst(), s.TCP.DstPort)
}

// FlowHashOf is FlowHash of the flow between endpoints a:ap and b:bp, in
// either order.
//
//ruru:noalloc
func FlowHashOf(seed uint64, a netip.Addr, ap uint16, b netip.Addr, bp uint16) uint64 {
	return hashx.Fmix(endpointHash(seed, a, ap) + endpointHash(seed, b, bp))
}

// endpointHash folds an IPv4 endpoint in as one word, address over port,
// and an IPv6 endpoint as three: the address's two halves, then the port.
//
//ruru:noalloc
func endpointHash(seed uint64, a netip.Addr, port uint16) uint64 {
	if a.Is4() {
		b := a.As4()
		w := uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 | uint64(b[3])<<16
		return hashx.Mix(seed, w|uint64(port))
	}
	return hashx.Mix(hashx.MixAddr(seed, a), uint64(port))
}
