// Package packet implements the wire formats Geneva manipulates: IPv4
// headers and TCP segments (including options), with the TCP checksum
// computed over the IPv4 pseudo-header. IPv4/TCP is the only transport the
// evaluation models, as in the paper.
//
// The design follows gopacket's layered model in miniature: each layer type
// has Marshal/Unmarshal methods that are exact inverses, and a Packet ties an
// IP header to a TCP segment. Unlike gopacket, everything here is pure
// stdlib and allocation-light, because the Geneva engine clones and mutates
// packets in tight loops during genetic training.
//
// Geneva is deliberately agnostic to packet semantics (§4.1 of the paper):
// it recomputes checksums and lengths after tampering unless the tampered
// field is itself a checksum or length, in which case the corrupt value is
// preserved. The Marshal methods honor that contract via the fix-up flags on
// each header type.
package packet
