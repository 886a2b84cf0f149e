package apps

import (
	"bytes"
	"encoding/binary"
)

// dnsQueryID is the fixed transaction ID used by the simulated resolver
// client (deterministic runs).
const dnsQueryID = 0x1337

// EncodeDNSQuery builds a DNS-over-TCP query (RFC 7766: 2-byte length
// prefix) for an A record of name.
func EncodeDNSQuery(name string) []byte {
	return appendDNSMessage(nil, 0x0100, []byte(name), false, [4]byte{}) // RD set
}

// AppendDNSResponse appends the DNS-over-TCP answer matching
// EncodeDNSQuery(name), resolving name to addr, to dst and returns the
// extended buffer. It allocates only if dst lacks the capacity.
func AppendDNSResponse(dst, name []byte, addr [4]byte) []byte {
	return appendDNSMessage(dst, 0x8180, name, true, addr) // QR|RD|RA
}

// appendDNSMessage appends a length-prefixed message with the given header
// flags and one question, an A record of name, answered with addr when
// answer is set.
func appendDNSMessage(dst []byte, flags uint16, name []byte, answer bool, addr [4]byte) []byte {
	start := len(dst)
	var an uint16
	if answer {
		an = 1
	}
	dst = append(dst, 0, 0) // the length prefix, filled in last
	dst = binary.BigEndian.AppendUint16(dst, dnsQueryID)
	dst = binary.BigEndian.AppendUint16(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, 1) // QDCOUNT
	dst = binary.BigEndian.AppendUint16(dst, an)
	dst = append(dst, 0, 0, 0, 0) // NSCOUNT, ARCOUNT
	dst = appendDNSName(dst, name)
	dst = binary.BigEndian.AppendUint16(dst, 1) // QTYPE A
	dst = binary.BigEndian.AppendUint16(dst, 1) // QCLASS IN
	if answer {
		dst = append(dst, 0xc0, 0x0c)                 // pointer to the question name
		dst = binary.BigEndian.AppendUint16(dst, 1)   // TYPE A
		dst = binary.BigEndian.AppendUint16(dst, 1)   // CLASS IN
		dst = binary.BigEndian.AppendUint32(dst, 300) // TTL
		dst = binary.BigEndian.AppendUint16(dst, 4)   // RDLENGTH
		dst = append(dst, addr[:]...)
	}
	binary.BigEndian.PutUint16(dst[start:], uint16(len(dst)-start-2))
	return dst
}

// appendDNSName appends name's labels, split at every dot once one
// trailing dot is dropped, and the root label.
func appendDNSName(dst, name []byte) []byte {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	for {
		i := bytes.IndexByte(name, '.')
		if i < 0 {
			return append(append(append(dst, byte(len(name))), name...), 0)
		}
		dst = append(append(dst, byte(i)), name[:i]...)
		name = name[i+1:]
	}
}
