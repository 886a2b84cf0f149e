// Package censor provides the machinery shared by all the nation-state
// censor models: blocklists and the HTTP-Host matcher, the bounded flow
// table the on-path censors keep their per-flow state in, the timed-window
// tables (blackholes and the residual-censorship table behind every
// ResidualCarrier), the packet fabrication helpers (injected RSTs, block
// pages, and redirects), and DPI, the one stateless-DPI censor model.
//
// The concrete censors live in the subpackages gfw (China) and kazakh,
// each a netsim.Middlebox with the mechanics the source papers
// reverse-engineer for that country, and india (the multi-ISP family:
// Airtel, Jio, Vodafone), iran and tmc (Turkmenistan), which are
// calibrations of DPI.
package censor

import (
	"bytes"
	"strings"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// ResidualCarrier is implemented by censor models that keep cross-connection
// residual-censorship state (the GFW's ~90 s poisoned server windows, §4.2).
// It is the narrow seam the cell-based fleet harness merges censor state
// through: each simulated censor instance exports its live windows at a wave
// barrier and is re-seeded with the merged view before the next wave.
//
// Both methods use durations relative to the instance's own virtual clock:
// ExportResidual reports each live window as the time remaining until its
// expiry at `now`, and SeedResidual installs a window expiring at `expiry`
// on the instance's clock. Seeding never shortens an existing window
// (max-merge), so applying the same set of seeds in any order produces the
// same state — the property the fleet's determinism contract relies on.
type ResidualCarrier interface {
	ExportResidual(now time.Duration, emit func(key string, remaining time.Duration))
	SeedResidual(key string, expiry time.Duration)
}

// ParamShifter is implemented by censor models whose calibrated stochastic
// parameters can be re-tuned mid-run — the seam the fleet's censor-shift
// scenarios (and the co-evolution roadmap item) drive. Params maps
// parameter names to new values; a name may be bare ("prst", applied to
// every protocol box that has the parameter) or protocol-scoped
// ("http.prst"). Unknown names are ignored, so a shift written for one
// censor family can be applied across a mixed fleet. Implementations must
// be deterministic: the new values replace calibration constants and must
// not consult any randomness of their own.
type ParamShifter interface {
	ShiftParams(params map[string]float64)
}

// Blocklist is what a censor looks for, per §4.2 of the paper.
type Blocklist struct {
	// Domains are forbidden hostnames (DNS QNAMEs, HTTP Host headers,
	// TLS SNI values). A name matches if it equals or is a subdomain of
	// an entry.
	Domains []string
	// Keywords are forbidden strings in HTTP request targets and FTP
	// file names (e.g. "ultrasurf").
	Keywords []string
	// Emails are forbidden SMTP recipient addresses.
	Emails []string
}

// defaultBlocklist is built once: Default runs in every trial, and the
// lists are read-only, so sharing the backing arrays keeps rig construction
// off the allocator.
var defaultBlocklist = Blocklist{
	Domains:  []string{"www.wikipedia.org", "youtube.com", "blocked.example"},
	Keywords: []string{"ultrasurf", "falun"},
	Emails:   []string{"tibetalk@yahoo.com.cn"},
}

// Default returns the blocklist used throughout the experiments, mirroring
// the paper's triggers: the keyword "ultrasurf", the domains
// www.wikipedia.org (China HTTPS) and youtube.com (Iran HTTPS), a generic
// blocked web host, and the censored mailbox tibetalk@yahoo.com.cn. The
// returned value shares its backing arrays across calls; callers must not
// mutate the lists in place (append-and-assign is fine).
func Default() Blocklist {
	return defaultBlocklist
}

// MatchDomain reports whether name is blocked (exact or subdomain match),
// reading name in place. One trailing dot is dropped from name and from
// each entry, as are an entry's surrounding spaces. Letters compare
// case-insensitively, as DNS names do (RFC 4343): a mixed-case entry
// ("Wikipedia.ORG") blocks "wikipedia.org" and vice versa.
func (b Blocklist) MatchDomain(name []byte) bool {
	name = trimDot(name)
	for _, d := range b.Domains {
		d = strings.TrimSuffix(strings.TrimSpace(d), ".")
		if len(name) < len(d) || !equalFold(name[len(name)-len(d):], d) {
			continue
		}
		if rest := len(name) - len(d); rest == 0 || name[rest-1] == '.' {
			return true
		}
	}
	return false
}

// ForbiddenHost reports whether any HTTP request pkt carries names a
// blocked Host: the first request, then each pipelined follow-up. The match
// is anchored at a well-formed request line, so a packet that starts
// mid-request is not recognized as HTTP at all — the single-packet DPI
// blind spot client segmentation (Strategy 8) exploits.
func (b Blocklist) ForbiddenHost(pkt *packet.Packet) bool {
	return packet.VisitHTTPRequests(pkt.TCP.Payload, func(_, h []byte, hok bool) bool {
		return hok && b.MatchDomain(h)
	})
}

// MatchKeyword reports whether s contains a blocked keyword, letters
// compared case-insensitively on both sides.
func (b Blocklist) MatchKeyword(s []byte) bool {
	for _, k := range b.Keywords {
		for i := 0; i+len(k) <= len(s); i++ {
			if equalFold(s[i:i+len(k)], k) {
				return true
			}
		}
	}
	return false
}

// MatchEmail reports whether addr is a blocked recipient, surrounding
// spaces dropped and letters compared case-insensitively on both sides.
func (b Blocklist) MatchEmail(addr []byte) bool {
	addr = bytes.TrimSpace(addr)
	for _, e := range b.Emails {
		if equalFold(addr, strings.TrimSpace(e)) {
			return true
		}
	}
	return false
}

// trimDot drops one trailing dot.
func trimDot(name []byte) []byte {
	if n := len(name); n > 0 && name[n-1] == '.' {
		return name[:n-1]
	}
	return name
}

// equalFold reports whether b and s are equal with ASCII letters folded to
// lower case. Names, keywords and mailboxes on the wire are ASCII; a
// non-ASCII byte matches only itself.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Injections is a censor's scratch pair for the packets one Process call
// fabricates, one slice per receiving endpoint. The verdict it builds
// borrows both slices (see netsim.Verdict): the censor resets them at the
// top of its next Process call, so once they have grown to what one packet
// elicits, injecting allocates nothing.
type Injections struct {
	toClient, toServer []*packet.Packet
}

// Reset empties both slices and keeps their capacity.
func (in *Injections) Reset() {
	in.toClient, in.toServer = in.toClient[:0], in.toServer[:0]
}

// Add queues pkts for injection toward dir's receiver.
func (in *Injections) Add(dir netsim.Direction, pkts ...*packet.Packet) {
	if dir == netsim.ToClient {
		in.toClient = append(in.toClient, pkts...)
	} else {
		in.toServer = append(in.toServer, pkts...)
	}
}

// Verdict returns the verdict injecting everything added since Reset. A
// direction with nothing to inject gets a nil slice.
func (in *Injections) Verdict(drop bool, note string) netsim.Verdict {
	v := netsim.Verdict{Drop: drop, Note: note}
	if len(in.toClient) > 0 {
		v.InjectToClient = in.toClient
	}
	if len(in.toServer) > 0 {
		v.InjectToServer = in.toServer
	}
	return v
}

// InjectRST fabricates the tear-down packet an on-path censor sends: a
// RST+ACK that will pass the victim's sequence checks because the censor
// copies the numbers from its TCB.
func InjectRST(from packet.Flow, seq, ack uint32) *packet.Packet {
	p := packet.Get(from.SrcAddr, from.DstAddr, from.SrcPort, from.DstPort)
	p.IP.TTL = 64
	p.TCP.Flags = packet.FlagRST | packet.FlagACK
	p.TCP.Seq = seq
	p.TCP.Ack = ack
	p.TCP.Window = 0
	return p
}

// BlockPage fabricates an injected HTTP 200 block page carried on a
// FIN+PSH+ACK, the shape Airtel and Kazakhstan use (§5.2, §5.3).
func BlockPage(from packet.Flow, seq, ack uint32, body string) *packet.Packet {
	p := packet.Get(from.SrcAddr, from.DstAddr, from.SrcPort, from.DstPort)
	p.IP.TTL = 64
	p.TCP.Flags = packet.FlagFIN | packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = seq
	p.TCP.Ack = ack
	p.TCP.Window = 65535
	p.TCP.Payload = append(append(p.TCP.Payload[:0],
		"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nConnection: close\r\n\r\n"...), body...)
	return p
}

// Redirect302 fabricates an injected HTTP 302 redirect on a FIN+PSH+ACK —
// the Vodafone-style response Yadav et al. document for several Indian
// ISPs: instead of a block page or a tear-down, the censor outruns the real
// response with a redirect to its notice page.
func Redirect302(from packet.Flow, seq, ack uint32, location string) *packet.Packet {
	p := packet.Get(from.SrcAddr, from.DstAddr, from.SrcPort, from.DstPort)
	p.IP.TTL = 64
	p.TCP.Flags = packet.FlagFIN | packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = seq
	p.TCP.Ack = ack
	p.TCP.Window = 65535
	p.TCP.Payload = append(append(append(p.TCP.Payload[:0],
		"HTTP/1.1 302 Found\r\nLocation: "...), location...),
		"\r\nConnection: close\r\n\r\n"...)
	return p
}
