package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers used throughout the simulator.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// IPv4 flag bits (in the 3-bit flags field).
const (
	IPv4DontFrag   = 0x2
	IPv4MoreFrag   = 0x1
	ipv4HeaderBase = 20
)

// Errors returned by the unmarshalers.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrBadHeader = errors.New("packet: malformed header")
)

// IPv4 is an IPv4 header. The zero value marshals to a minimal, valid
// header once Src/Dst are set; Marshal fills in Version, IHL, TotalLength
// and HeaderChecksum unless the corresponding Raw flag is set (Geneva's
// tamper{corrupt} on a length or checksum must survive serialization).
type IPv4 struct {
	Version  uint8 // 4 unless tampered
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr
	Options  []byte // raw, padded to 32-bit boundary by Marshal

	// RawLength and RawChecksum suppress recomputation of the respective
	// fields during Marshal, preserving tampered values.
	RawLength   bool
	RawChecksum bool
}

// HeaderLen returns the header length in bytes implied by the options.
func (ip *IPv4) HeaderLen() int {
	opt := len(ip.Options)
	if pad := opt % 4; pad != 0 {
		opt += 4 - pad
	}
	return ipv4HeaderBase + opt
}

// Marshal appends the serialized header followed by payload and returns the
// resulting datagram. Version, IHL, Length and Checksum are recomputed
// unless their Raw flags are set.
func (ip *IPv4) Marshal(payload []byte) ([]byte, error) {
	return ip.MarshalAppend(make([]byte, 0, ip.HeaderLen()+len(payload)), payload)
}

// MarshalAppend appends the serialized header followed by payload to buf,
// allocating only if buf lacks capacity. Semantics are otherwise identical
// to Marshal.
func (ip *IPv4) MarshalAppend(buf, payload []byte) ([]byte, error) {
	buf, err := ip.appendHeader(buf, len(payload))
	if err != nil {
		return nil, err
	}
	return append(buf, payload...), nil
}

// appendHeader appends just the header, computing Length for a payload of
// payloadLen bytes (which lets a caller serialize the transport segment into
// the same buffer afterwards).
func (ip *IPv4) appendHeader(buf []byte, payloadLen int) ([]byte, error) {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return nil, fmt.Errorf("%w: IPv4 header requires 4-byte addresses", ErrBadHeader)
	}
	hlen := ip.HeaderLen()
	if ip.Version == 0 {
		ip.Version = 4
	}
	ip.IHL = uint8(hlen / 4)
	if !ip.RawLength {
		ip.Length = uint16(hlen + payloadLen)
	}
	start := len(buf)
	buf = append(buf, make([]byte, hlen)...)
	b := buf[start:]
	b[0] = ip.Version<<4 | ip.IHL
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:], ip.Length)
	binary.BigEndian.PutUint16(b[4:], ip.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(ip.Flags&0x7)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	src, dst := ip.Src.As4(), ip.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	copy(b[20:], ip.Options)
	if !ip.RawChecksum {
		ip.Checksum = Checksum(b[:hlen])
	}
	binary.BigEndian.PutUint16(b[10:], ip.Checksum)
	return buf, nil
}

// Unmarshal parses an IPv4 header from data and returns the payload bytes
// (bounded by the header's total length when it is plausible).
func (ip *IPv4) Unmarshal(data []byte) ([]byte, error) {
	if len(data) < ipv4HeaderBase {
		return nil, ErrTruncated
	}
	ip.Version = data[0] >> 4
	ip.IHL = data[0] & 0xf
	hlen := int(ip.IHL) * 4
	if hlen < ipv4HeaderBase || hlen > len(data) {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadHeader, ip.IHL)
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:])
	ip.ID = binary.BigEndian.Uint16(data[4:])
	ff := binary.BigEndian.Uint16(data[6:])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	ip.Options = append(ip.Options[:0], data[ipv4HeaderBase:hlen]...)
	end := int(ip.Length)
	if end < hlen || end > len(data) {
		end = len(data) // tolerate tampered lengths; DPI boxes do the same
	}
	return data[hlen:end], nil
}

// ChecksumValid reports whether the header checksum in a serialized header
// is correct. It re-marshals with RawChecksum set, so ip must be unchanged
// since Unmarshal.
func (ip *IPv4) ChecksumValid() bool {
	savedCk, savedLen := ip.RawChecksum, ip.RawLength
	ip.RawChecksum, ip.RawLength = true, true
	b, err := ip.Marshal(nil)
	ip.RawChecksum, ip.RawLength = savedCk, savedLen
	if err != nil {
		return false
	}
	return Checksum(b[:ip.HeaderLen()]) == 0
}

func (ip *IPv4) String() string {
	return fmt.Sprintf("IPv4 %s -> %s ttl=%d proto=%d", ip.Src, ip.Dst, ip.TTL, ip.Protocol)
}
