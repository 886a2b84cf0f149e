package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// tcpHeaderBase is the length of a TCP header without options.
const tcpHeaderBase = 20

// TCP is a TCP segment: header, options, and payload.
//
// Marshal recomputes DataOff and Checksum unless the Raw flags are set;
// Geneva's tamper{TCP:chksum:corrupt} sets RawChecksum so the corrupted
// value survives (the basis of "insertion packets", §7).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []Option
	Payload          []byte

	RawChecksum bool // keep Checksum as-is during Marshal
	RawDataOff  bool // keep DataOff as-is during Marshal
}

// Option is a single TCP option in kind/length/data form. EOL and NOP have
// no length or data on the wire.
type Option struct {
	Kind byte
	Data []byte
}

// Well-known TCP option kinds.
const (
	OptEOL       = 0
	OptNOP       = 1
	OptMSS       = 2
	OptWScale    = 3
	OptSACKOK    = 4
	OptTimestamp = 8
	OptMD5       = 19
	OptUTO       = 28
	OptAltChksum = 14
)

// optionsLen returns the padded wire length of the option list.
func (t *TCP) optionsLen() int {
	n := 0
	for _, o := range t.Options {
		if o.Kind == OptEOL || o.Kind == OptNOP {
			n++
		} else {
			n += 2 + len(o.Data)
		}
	}
	if pad := n % 4; pad != 0 {
		n += 4 - pad
	}
	return n
}

// HeaderLen returns the header length in bytes implied by the options.
func (t *TCP) HeaderLen() int { return tcpHeaderBase + t.optionsLen() }

// Marshal serializes the segment, computing the checksum with the
// pseudo-header for src -> dst (4- or 16-byte addresses).
func (t *TCP) Marshal(src, dst []byte) ([]byte, error) {
	return t.MarshalAppend(make([]byte, 0, t.HeaderLen()+len(t.Payload)), src, dst)
}

// MarshalAppend appends the serialized segment to buf and returns the
// extended slice, allocating only if buf lacks capacity. Semantics are
// otherwise identical to Marshal.
func (t *TCP) MarshalAppend(buf, src, dst []byte) ([]byte, error) {
	hlen := t.HeaderLen()
	if !t.RawDataOff {
		t.DataOff = uint8(hlen / 4)
	}
	start := len(buf)
	buf = append(buf, make([]byte, hlen+len(t.Payload))...)
	b := buf[start:]
	binary.BigEndian.PutUint16(b[0:], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:], t.DstPort)
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint32(b[8:], t.Ack)
	b[12] = t.DataOff << 4
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:], t.Window)
	binary.BigEndian.PutUint16(b[18:], t.Urgent)
	off := tcpHeaderBase
	for _, o := range t.Options {
		switch o.Kind {
		case OptEOL, OptNOP:
			b[off] = o.Kind
			off++
		default:
			b[off] = o.Kind
			b[off+1] = byte(2 + len(o.Data))
			copy(b[off+2:], o.Data)
			off += 2 + len(o.Data)
		}
	}
	// Remaining option bytes are already zero (EOL padding).
	copy(b[hlen:], t.Payload)
	if !t.RawChecksum {
		t.Checksum = transportChecksum(src, dst, ProtoTCP, b)
	}
	binary.BigEndian.PutUint16(b[16:], t.Checksum)
	return buf, nil
}

// Unmarshal parses a TCP segment. Option and payload buffers already held
// by t are reused when they have capacity, so parsing into a recycled
// segment does not allocate; the zero value behaves as before.
func (t *TCP) Unmarshal(data []byte) error {
	if len(data) < tcpHeaderBase {
		return ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:])
	t.DstPort = binary.BigEndian.Uint16(data[2:])
	t.Seq = binary.BigEndian.Uint32(data[4:])
	t.Ack = binary.BigEndian.Uint32(data[8:])
	t.DataOff = data[12] >> 4
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:])
	t.Checksum = binary.BigEndian.Uint16(data[16:])
	t.Urgent = binary.BigEndian.Uint16(data[18:])
	hlen := int(t.DataOff) * 4
	if hlen < tcpHeaderBase || hlen > len(data) {
		return fmt.Errorf("%w: data offset %d", ErrBadHeader, t.DataOff)
	}
	t.Options = t.Options[:0]
	opts := data[tcpHeaderBase:hlen]
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case OptEOL:
			opts = nil
		case OptNOP:
			t.AddOption(OptNOP)
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return fmt.Errorf("%w: option %d", ErrBadHeader, kind)
			}
			l := int(opts[1])
			t.AddOption(kind, opts[2:l]...)
			opts = opts[l:]
		}
	}
	t.Payload = append(t.Payload[:0], data[hlen:]...)
	return nil
}

// AddOption appends an option, copying data into a recycled slot's Data
// buffer when one is available so repeated build/reset cycles (pooled
// packets, handshake senders) stop allocating once warm.
func (t *TCP) AddOption(kind byte, data ...byte) {
	if n := len(t.Options); n < cap(t.Options) {
		t.Options = t.Options[:n+1]
		o := &t.Options[n]
		o.Kind = kind
		o.Data = append(o.Data[:0], data...)
		return
	}
	t.Options = append(t.Options, Option{Kind: kind, Data: append([]byte(nil), data...)})
}

// ChecksumValid reports whether the segment's checksum is correct for the
// given pseudo-header addresses. The serialization it implies happens into a
// pooled scratch buffer, so validating a received packet does not allocate.
func (t *TCP) ChecksumValid(src, dst []byte) bool {
	savedCk, savedRaw := t.Checksum, t.RawChecksum
	t.RawChecksum = false
	buf := getWireBuf()
	b, err := t.MarshalAppend((*buf)[:0], src, dst)
	good := err == nil && t.Checksum == savedCk
	*buf = b[:0]
	putWireBuf(buf)
	t.Checksum, t.RawChecksum = savedCk, savedRaw
	return good
}

// Option returns the first option of the given kind, or nil.
func (t *TCP) Option(kind byte) *Option {
	for i := range t.Options {
		if t.Options[i].Kind == kind {
			return &t.Options[i]
		}
	}
	return nil
}

// RemoveOption deletes all options of the given kind and reports whether any
// were present. Survivors keep their order; compaction swaps slots rather
// than copying them, so every slot, removed ones included, keeps its own
// Data buffer for AddOption to reuse.
func (t *TCP) RemoveOption(kind byte) bool {
	n := 0
	for i := range t.Options {
		if t.Options[i].Kind != kind {
			t.Options[n], t.Options[i] = t.Options[i], t.Options[n]
			n++
		}
	}
	removed := n < len(t.Options)
	t.Options = t.Options[:n]
	return removed
}

// SetOption replaces the first option of the given kind or appends one.
func (t *TCP) SetOption(kind byte, data []byte) {
	if o := t.Option(kind); o != nil {
		o.Data = data
		return
	}
	t.Options = append(t.Options, Option{Kind: kind, Data: data})
}

// FlagsString renders the flag bits in Geneva's letter notation (e.g. "SA").
func FlagsString(f uint8) string {
	var b strings.Builder
	for _, fl := range []struct {
		bit  uint8
		name byte
	}{{FlagFIN, 'F'}, {FlagSYN, 'S'}, {FlagRST, 'R'}, {FlagPSH, 'P'}, {FlagACK, 'A'}, {FlagURG, 'U'}} {
		if f&fl.bit != 0 {
			b.WriteByte(fl.name)
		}
	}
	return b.String()
}

// ParseFlags converts Geneva letter notation to flag bits. Unknown letters
// are an error; the empty string is valid (null flags, Strategy 11).
func ParseFlags(s string) (uint8, error) {
	var f uint8
	for _, c := range s {
		switch c {
		case 'F':
			f |= FlagFIN
		case 'S':
			f |= FlagSYN
		case 'R':
			f |= FlagRST
		case 'P':
			f |= FlagPSH
		case 'A':
			f |= FlagACK
		case 'U':
			f |= FlagURG
		default:
			return 0, fmt.Errorf("packet: unknown TCP flag %q", c)
		}
	}
	return f, nil
}

func (t *TCP) String() string {
	fl := FlagsString(t.Flags)
	if fl == "" {
		fl = "-"
	}
	return fmt.Sprintf("TCP %d->%d [%s] seq=%d ack=%d win=%d len=%d",
		t.SrcPort, t.DstPort, fl, t.Seq, t.Ack, t.Window, len(t.Payload))
}
