package packet

import "encoding/binary"

// Checksum computes the Internet checksum (RFC 1071) over data, folded to 16
// bits and complemented. An odd trailing byte is padded with zero, as the
// RFC requires.
func Checksum(data []byte) uint16 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum returns the unfolded checksum contribution of the IPv4
// pseudo-header used by TCP.
func pseudoHeaderSum(src, dst []byte, proto uint8, length int) uint32 {
	var sum uint32
	for i := 0; i+1 < len(src); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(src[i:]))
	}
	for i := 0; i+1 < len(dst); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(dst[i:]))
	}
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// transportChecksum computes the TCP checksum of segment with the
// pseudo-header derived from src, dst and proto. The checksum field inside
// segment must already be zeroed by the caller.
func transportChecksum(src, dst []byte, proto uint8, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	for len(segment) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(segment))
		segment = segment[2:]
	}
	if len(segment) == 1 {
		sum += uint32(segment[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}
