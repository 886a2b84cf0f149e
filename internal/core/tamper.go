package core

import (
	"math/rand"
	"strconv"

	"geneva/internal/packet"
)

// tamper applies one tamper{proto:field:mode[:value]} to pkt in place.
// Invalid combinations are silently ignored: Geneva's genetic search
// produces nonsense constantly and the engine must shrug it off. Checksums
// and lengths are recomputed at serialization unless the tampered field is
// itself a checksum or length, in which case the Raw flags pin the corrupt
// value (the paper's insertion packets).
func tamper(pkt *packet.Packet, proto, field, mode, value string, rng *rand.Rand) {
	corrupt := mode == "corrupt"
	switch proto {
	case "TCP":
		tamperTCP(pkt, field, corrupt, value, rng)
	case "IP", "IPv4":
		tamperIP(pkt, field, corrupt, value, rng)
	case "DNS":
		// The paper's §4 application-layer extension: rewrite the
		// DNS-over-TCP message riding in the TCP payload.
		tamperDNS(pkt, field, corrupt, value, rng)
	}
}

func tamperTCP(pkt *packet.Packet, field string, corrupt bool, value string, rng *rand.Rand) {
	t := &pkt.TCP
	switch field {
	case "flags":
		if corrupt {
			t.Flags = uint8(rng.Intn(64))
			return
		}
		if f, err := packet.ParseFlags(value); err == nil {
			t.Flags = f
		}
	case "seq":
		t.Seq = tamper32(t.Seq, corrupt, value, rng)
	case "ack":
		t.Ack = tamper32(t.Ack, corrupt, value, rng)
	case "sport":
		t.SrcPort = tamper16(t.SrcPort, corrupt, value, rng)
	case "dport":
		t.DstPort = tamper16(t.DstPort, corrupt, value, rng)
	case "window":
		t.Window = tamper16(t.Window, corrupt, value, rng)
	case "urgptr":
		t.Urgent = tamper16(t.Urgent, corrupt, value, rng)
	case "chksum":
		// Tampered checksums survive serialization (insertion packets).
		t.Checksum = tamper16(t.Checksum, corrupt, value, rng)
		t.RawChecksum = true
	case "dataofs":
		if corrupt {
			t.DataOff = uint8(rng.Intn(16))
		} else if v, err := strconv.ParseUint(value, 10, 8); err == nil {
			t.DataOff = uint8(v)
		}
		t.RawDataOff = true
	case "load":
		// The engine owns the packet and its payload buffer (a pooled
		// packet, a ClonePooled duplicate or a fragment half), so the new
		// load is written in place.
		if corrupt {
			n := len(t.Payload)
			if n == 0 {
				n = 8 + rng.Intn(24)
			}
			t.Payload = append(t.Payload[:0], make([]byte, n)...)
			rng.Read(t.Payload)
			return
		}
		t.Payload = append(t.Payload[:0], value...)
	case "options-wscale":
		tamperOption(t, packet.OptWScale, corrupt, value, 1, rng)
	case "options-mss":
		tamperOption(t, packet.OptMSS, corrupt, value, 2, rng)
	case "options-sackok":
		tamperOption(t, packet.OptSACKOK, corrupt, value, 0, rng)
	case "options-timestamp":
		tamperOption(t, packet.OptTimestamp, corrupt, value, 8, rng)
	case "options-altchksum":
		tamperOption(t, packet.OptAltChksum, corrupt, value, 3, rng)
	case "options-uto":
		tamperOption(t, packet.OptUTO, corrupt, value, 2, rng)
	case "options-md5header":
		tamperOption(t, packet.OptMD5, corrupt, value, 16, rng)
	}
}

// tamperOption replaces or corrupts a TCP option. The new value is written
// into the option slot's own Data buffer, as a tampered load is written
// into the payload's: the engine owns every packet it tampers, option
// buffers included (AddOption, CopyFrom and Unmarshal all copy). Geneva's
// tamper{TCP:options-X:replace:} with an empty value removes the option —
// Strategy 8 strips wscale this way.
func tamperOption(t *packet.TCP, kind byte, corrupt bool, value string, width int, rng *rand.Rand) {
	if corrupt {
		rng.Read(optionData(t, kind, width))
		return
	}
	if value == "" {
		t.RemoveOption(kind)
		return
	}
	if v, err := strconv.ParseUint(value, 10, 64); err == nil && width > 0 {
		data := optionData(t, kind, width)
		for i := width - 1; i >= 0; i-- {
			data[i] = byte(v)
			v >>= 8
		}
		return
	}
	copy(optionData(t, kind, len(value)), value)
}

// optionData returns the Data of the first option of kind, n bytes long,
// adding the option if it is absent. The slot's buffer is resized within
// its capacity when that suffices; its old bytes are the caller's to
// overwrite.
func optionData(t *packet.TCP, kind byte, n int) []byte {
	o := t.Option(kind)
	if o == nil {
		t.AddOption(kind)
		o = &t.Options[len(t.Options)-1]
	}
	if cap(o.Data) < n {
		o.Data = make([]byte, n)
	} else {
		o.Data = o.Data[:n]
	}
	return o.Data
}

func tamperIP(pkt *packet.Packet, field string, corrupt bool, value string, rng *rand.Rand) {
	ip := &pkt.IP
	switch field {
	case "ttl":
		if corrupt {
			ip.TTL = uint8(rng.Intn(256))
		} else if v, err := strconv.ParseUint(value, 10, 8); err == nil {
			ip.TTL = uint8(v)
		}
	case "tos":
		if corrupt {
			ip.TOS = uint8(rng.Intn(256))
		} else if v, err := strconv.ParseUint(value, 10, 8); err == nil {
			ip.TOS = uint8(v)
		}
	case "ident", "id":
		ip.ID = tamper16(ip.ID, corrupt, value, rng)
	case "len":
		ip.Length = tamper16(ip.Length, corrupt, value, rng)
		ip.RawLength = true
	case "chksum":
		ip.Checksum = tamper16(ip.Checksum, corrupt, value, rng)
		ip.RawChecksum = true
	case "version":
		if corrupt {
			ip.Version = uint8(rng.Intn(16))
		} else if v, err := strconv.ParseUint(value, 10, 8); err == nil {
			ip.Version = uint8(v)
		}
	case "flags":
		// DF/MF/evil in Geneva notation, e.g. "DF" or "MF".
		if corrupt {
			ip.Flags = uint8(rng.Intn(8))
			return
		}
		var f uint8
		switch value {
		case "DF":
			f = packet.IPv4DontFrag
		case "MF":
			f = packet.IPv4MoreFrag
		case "":
			f = 0
		default:
			return
		}
		ip.Flags = f
	case "frag":
		ip.FragOff = tamper16(ip.FragOff, corrupt, value, rng) & 0x1fff
	}
}

func tamper16(cur uint16, corrupt bool, value string, rng *rand.Rand) uint16 {
	if corrupt {
		return uint16(rng.Intn(1 << 16))
	}
	if v, err := strconv.ParseUint(value, 10, 16); err == nil {
		return uint16(v)
	}
	return cur
}

func tamper32(cur uint32, corrupt bool, value string, rng *rand.Rand) uint32 {
	if corrupt {
		return rng.Uint32()
	}
	if v, err := strconv.ParseUint(value, 10, 32); err == nil {
		return uint32(v)
	}
	return cur
}
