package packet

import (
	"bytes"
	"encoding/binary"
)

// Byte-oriented application-layer parsers: the fields DPI censors extract
// from TCP payloads (HTTP request line + Host, TLS SNI, DNS question name).
// They read the fields in place and allocate nothing: every field they
// return is a sub-slice of the bytes they were given, valid as long as
// those bytes are, except the DNS name, which is appended to a buffer the
// caller owns. Every reader calls them on the bytes it inspects: one censor
// sits on any path and each engine reads only its own protocol's field, so
// a per-packet cache would have nothing to share.
//
// Semantics are pinned byte-for-byte to the originals (internal/apps keeps
// differential fuzz targets proving it): all parsers fail closed to
// (nil, false) on anything malformed or truncated, which per §6 makes the
// censors fail *open* — the root of the paper's segmentation strategies.

var crlf = []byte("\r\n")

// ParseHTTPRequestTarget returns the request path+query of an HTTP request
// line contained in data, if one is fully present (method GET or POST,
// line terminated by CRLF, third token starting with "HTTP/"). The target
// aliases data.
func ParseHTTPRequestTarget(data []byte) ([]byte, bool) {
	if !bytes.HasPrefix(data, []byte("GET ")) && !bytes.HasPrefix(data, []byte("POST ")) {
		return nil, false
	}
	end := bytes.Index(data, crlf)
	if end < 0 {
		return nil, false
	}
	line := data[:end]
	// Request line tokens split on single spaces, exactly like
	// strings.Split: "GET  /x HTTP/1.1" has an empty second token and the
	// version check runs against "/x", failing as before.
	i1 := bytes.IndexByte(line, ' ') // after the method; >= 0 given the prefix check
	i2 := bytes.IndexByte(line[i1+1:], ' ')
	if i2 < 0 {
		return nil, false // no third token
	}
	i2 += i1 + 1
	if !bytes.HasPrefix(line[i2+1:], []byte("HTTP/")) {
		return nil, false
	}
	return line[i1+1 : i2], true
}

// NextHTTPRequestOffset returns the byte offset just past the first HTTP
// request's header block in data — where a pipelined (keep-alive) follow-up
// request would begin — or 0 when data does not start with a complete
// request (no CRLFCRLF terminator) or nothing follows the terminator. The
// first request must itself parse as a request line: a payload the DPI
// engines would not recognize as HTTP has no request boundaries either.
func NextHTTPRequestOffset(data []byte) int {
	if _, ok := ParseHTTPRequestTarget(data); !ok {
		return 0
	}
	idx := bytes.Index(data, []byte("\r\n\r\n"))
	if idx < 0 {
		return 0
	}
	off := idx + 4
	if off >= len(data) {
		return 0
	}
	return off
}

// VisitHTTPRequests walks the HTTP requests pipelined in data — the first
// request and every follow-up that begins right after the previous one's
// header block — calling visit with each request's line target (aliasing
// data, so a visitor that ignores it costs no copy) and the first Host
// header at or after it (hok false when none is present). It returns true
// as soon as visit does. Like the single-request parsers it is
// anchored: data must begin with a well-formed request line, and the walk
// stops at the first follow-up that does not parse — the censors' fail-open
// contract extended per request (§6).
func VisitHTTPRequests(data []byte, visit func(target, host []byte, hok bool) bool) bool {
	for off := 0; ; {
		seg := data[off:]
		target, ok := ParseHTTPRequestTarget(seg)
		if !ok {
			return false
		}
		host, hok := ParseHTTPHostHeader(seg)
		if visit(target, host, hok) {
			return true
		}
		next := NextHTTPRequestOffset(seg)
		if next <= 0 {
			return false
		}
		off += next
	}
}

// ParseHTTPHostHeader returns the Host header value of an HTTP request
// contained in data, if fully present (terminated by CRLF). The value
// aliases data.
func ParseHTTPHostHeader(data []byte) ([]byte, bool) {
	idx := bytes.Index(data, []byte("Host:"))
	if idx < 0 {
		return nil, false
	}
	rest := data[idx+len("Host:"):]
	end := bytes.Index(rest, crlf)
	if end < 0 {
		return nil, false
	}
	return bytes.TrimSpace(rest[:end]), true
}

// ParseTLSServerName parses a TLS record stream chunk and returns the
// server_name from a ClientHello, if present and fully contained in data.
// Like the real DPI boxes, it fails open (returns false) on truncation —
// which is why segmenting the ClientHello defeats single-packet censors.
// The name aliases data.
func ParseTLSServerName(data []byte) ([]byte, bool) {
	if len(data) < 5 || data[0] != 0x16 {
		return nil, false
	}
	recLen := int(binary.BigEndian.Uint16(data[3:]))
	if 5+recLen > len(data) {
		return nil, false // truncated record
	}
	hs := data[5 : 5+recLen]
	if len(hs) < 4 || hs[0] != 0x01 {
		return nil, false
	}
	bodyLen := int(hs[1])<<16 | int(hs[2])<<8 | int(hs[3])
	if 4+bodyLen > len(hs) {
		return nil, false
	}
	b := hs[4 : 4+bodyLen]
	// client_version(2) + random(32)
	if len(b) < 35 {
		return nil, false
	}
	off := 34
	// session_id
	if off >= len(b) {
		return nil, false
	}
	off += 1 + int(b[off])
	// cipher_suites
	if off+2 > len(b) {
		return nil, false
	}
	off += 2 + int(binary.BigEndian.Uint16(b[off:]))
	// compression_methods
	if off >= len(b) {
		return nil, false
	}
	off += 1 + int(b[off])
	// extensions
	if off+2 > len(b) {
		return nil, false
	}
	extLen := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if off+extLen > len(b) {
		return nil, false
	}
	exts := b[off : off+extLen]
	for len(exts) >= 4 {
		typ := binary.BigEndian.Uint16(exts)
		l := int(binary.BigEndian.Uint16(exts[2:]))
		if 4+l > len(exts) {
			return nil, false
		}
		if typ == 0 {
			e := exts[4 : 4+l]
			if len(e) < 5 {
				return nil, false
			}
			nameLen := int(binary.BigEndian.Uint16(e[3:]))
			if nameLen == 0 || 5+nameLen > len(e) {
				return nil, false // empty or truncated name: fail open
			}
			return e[5 : 5+nameLen], true
		}
		exts = exts[4+l:]
	}
	return nil, false
}

// ParseDNSQueryName extracts the first question name from a DNS-over-TCP
// stream chunk (RFC 7766 length prefix + message), appends it in dotted
// form to dst and returns the extended buffer. It fails closed to
// (dst, false) on anything malformed or truncated, and on a bare root
// query, which leaves DPI nothing to match.
func ParseDNSQueryName(dst, data []byte) ([]byte, bool) {
	if len(data) < 2 {
		return dst, false
	}
	msgLen := int(binary.BigEndian.Uint16(data))
	msg := data[2:]
	if len(msg) > msgLen {
		msg = msg[:msgLen]
	}
	if len(msg) < 12 {
		return dst, false
	}
	qd := binary.BigEndian.Uint16(msg[4:])
	if qd == 0 {
		return dst, false
	}
	return appendDNSQuestionName(dst, msg, 12)
}

// appendDNSQuestionName appends the label sequence at off to dst as a
// dotted name. Compression pointers never appear in questions; they are
// treated as malformed so the censor stays fail-open. On failure, and on
// an empty name, dst comes back at its original length.
func appendDNSQuestionName(dst, msg []byte, off int) ([]byte, bool) {
	start := len(dst)
	for {
		if off >= len(msg) {
			return dst[:start], false
		}
		l := int(msg[off])
		switch {
		case l == 0:
			return dst, len(dst) > start
		case l&0xc0 == 0xc0, off+1+l > len(msg) || l > 63:
			return dst[:start], false
		}
		if len(dst) > start {
			dst = append(dst, '.')
		}
		dst = append(dst, msg[off+1:off+1+l]...)
		off += 1 + l
	}
}
