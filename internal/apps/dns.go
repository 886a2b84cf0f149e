package apps

import (
	"encoding/binary"
	"strings"
)

// dnsQueryID is the fixed transaction ID used by the simulated resolver
// client (deterministic runs).
const dnsQueryID = 0x1337

// EncodeDNSQuery builds a DNS-over-TCP query (RFC 7766: 2-byte length
// prefix) for an A record of name.
func EncodeDNSQuery(name string) []byte {
	msg := encodeDNSHeader(dnsQueryID, 0x0100, 1, 0) // RD set, 1 question
	msg = append(msg, encodeDNSName(name)...)
	msg = binary.BigEndian.AppendUint16(msg, 1) // QTYPE A
	msg = binary.BigEndian.AppendUint16(msg, 1) // QCLASS IN
	return prefixLen(msg)
}

// EncodeDNSResponse builds the matching DNS-over-TCP answer, resolving name
// to addr (an IPv4 4-byte slice).
func EncodeDNSResponse(name string, addr [4]byte) []byte {
	msg := encodeDNSHeader(dnsQueryID, 0x8180, 1, 1) // QR|RD|RA
	q := encodeDNSName(name)
	msg = append(msg, q...)
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = binary.BigEndian.AppendUint16(msg, 1)
	// Answer: pointer to the question name.
	msg = append(msg, 0xc0, 0x0c)
	msg = binary.BigEndian.AppendUint16(msg, 1)   // TYPE A
	msg = binary.BigEndian.AppendUint16(msg, 1)   // CLASS IN
	msg = binary.BigEndian.AppendUint32(msg, 300) // TTL
	msg = binary.BigEndian.AppendUint16(msg, 4)   // RDLENGTH
	msg = append(msg, addr[:]...)
	return prefixLen(msg)
}

func encodeDNSHeader(id, flags uint16, qd, an uint16) []byte {
	h := make([]byte, 0, 12)
	h = binary.BigEndian.AppendUint16(h, id)
	h = binary.BigEndian.AppendUint16(h, flags)
	h = binary.BigEndian.AppendUint16(h, qd)
	h = binary.BigEndian.AppendUint16(h, an)
	h = binary.BigEndian.AppendUint16(h, 0)
	h = binary.BigEndian.AppendUint16(h, 0)
	return h
}

func encodeDNSName(name string) []byte {
	var b []byte
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0)
}

func prefixLen(msg []byte) []byte {
	out := make([]byte, 2, 2+len(msg))
	binary.BigEndian.PutUint16(out, uint16(len(msg)))
	return append(out, msg...)
}
