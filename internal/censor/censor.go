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
	"strings"
	"time"

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

func normDomain(d string) string {
	return strings.ToLower(strings.TrimSuffix(strings.TrimSpace(d), "."))
}

func normEmail(e string) string {
	return strings.ToLower(strings.TrimSpace(e))
}

// MatchDomain reports whether name is blocked (exact or subdomain match).
// Both the probed name and the blocklist entries are compared
// case-insensitively: a mixed-case entry ("Wikipedia.ORG") must block
// "wikipedia.org" and vice versa. Entry normalization here is free for
// already-normalized lists (strings.ToLower returns its argument unchanged),
// so the Default()-driven hot path stays allocation-free.
func (b Blocklist) MatchDomain(name string) bool {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	for _, d := range b.Domains {
		d = normDomain(d)
		if name == d || strings.HasSuffix(name, "."+d) {
			return true
		}
	}
	return false
}

// ForbiddenHost returns the first blocked Host among the HTTP requests pkt
// carries: the first request's, then each pipelined follow-up's. The match
// is anchored at a well-formed request line, so a packet that starts
// mid-request is not recognized as HTTP at all — the single-packet DPI
// blind spot client segmentation (Strategy 8) exploits.
func (b Blocklist) ForbiddenHost(pkt *packet.Packet) (string, bool) {
	if _, ok := pkt.HTTPRequestTarget(); !ok {
		return "", false
	}
	if host, ok := pkt.HTTPHostHeader(); ok && b.MatchDomain(host) {
		return host, true
	}
	off := pkt.HTTPNextRequestOffset()
	if off <= 0 {
		return "", false
	}
	var host string
	found := packet.VisitHTTPRequests(pkt.TCP.Payload[off:], func(_, h string, hok bool) bool {
		if hok && b.MatchDomain(h) {
			host = h
			return true
		}
		return false
	})
	return host, found
}

// MatchKeyword reports whether s contains a blocked keyword
// (case-insensitively, on both sides).
func (b Blocklist) MatchKeyword(s string) bool {
	s = strings.ToLower(s)
	for _, k := range b.Keywords {
		if strings.Contains(s, strings.ToLower(k)) {
			return true
		}
	}
	return false
}

// MatchEmail reports whether addr is a blocked recipient
// (case-insensitively, on both sides).
func (b Blocklist) MatchEmail(addr string) bool {
	addr = strings.ToLower(strings.TrimSpace(addr))
	for _, e := range b.Emails {
		if addr == normEmail(e) {
			return true
		}
	}
	return false
}

// InjectRST fabricates the tear-down packet an on-path censor sends: a
// RST+ACK that will pass the victim's sequence checks because the censor
// copies the numbers from its TCB.
func InjectRST(from, to packet.Flow, seq, ack uint32) *packet.Packet {
	p := packet.Get(from.SrcAddr, from.DstAddr, from.SrcPort, from.DstPort)
	_ = to
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
