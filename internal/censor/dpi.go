package censor

import (
	"math/rand"
	"net/netip"
	"time"

	"geneva/internal/apps"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/packet"
)

// Action is what a stateless-DPI censor does when a trigger matches.
type Action int

const (
	// ActionNone: the trigger is not filtered at all.
	ActionNone Action = iota
	// ActionBlockPage injects an HTTP 200 block page on a FIN+PSH+ACK,
	// plus a follow-up RST, toward the sender (India's Airtel).
	ActionBlockPage
	// ActionRedirect injects an HTTP 302 to the notice page toward the
	// sender, no RST (India's Vodafone).
	ActionRedirect
	// ActionBlackhole drops the offending packet and every later packet of
	// its flow for BlackholeWindow (India's Jio, Iran). In-path only.
	ActionBlackhole
	// ActionTeardown injects RST+ACK toward both endpoints and, with
	// Residual set, taints the server endpoint (Turkmenistan).
	ActionTeardown
	// ActionForgeDNS answers a DNS query with a forged response resolving
	// to ForgedAddr, injected toward the querier (Turkmenistan).
	ActionForgeDNS
)

// actionNotes is each action's verdict note. They are constants, so a
// censored packet builds no string; the traced packet itself carries the
// matched Host, SNI or name.
var actionNotes = [...]string{
	ActionBlockPage: "block page injected",
	ActionRedirect:  "302 injected",
	ActionBlackhole: "blackhole started",
	ActionTeardown:  "bidirectional tear-down",
	ActionForgeDNS:  "forged DNS response",
}

// DPIParams calibrates one stateless-DPI censor. The model is the class
// the paper's §5.2 finds in India and Iran and Nourin et al. find in
// Turkmenistan: DPI over single packets that needs no handshake, never
// reassembles (so client segmentation, Strategy 8, defeats it), and
// inspects only the protocols' default ports (DNS 53, HTTP 80, TLS 443).
type DPIParams struct {
	// Name is the middlebox's Name().
	Name string
	// HTTP is the action on a forbidden Host header (port 80), SNI on a
	// forbidden TLS SNI (port 443), DNS on a query for a forbidden name
	// (port 53, queries only).
	HTTP, SNI, DNS Action
	// Bidirectional inspects server-to-client packets too, and takes a
	// packet's service port from either endpoint. Otherwise only
	// client-to-server packets are inspected, by destination port.
	Bidirectional bool
	// BlackholeWindow is how long ActionBlackhole drops the flow; a packet
	// at exactly start+BlackholeWindow passes.
	BlackholeWindow time.Duration
	// Residual is how long a server endpoint stays tainted after an
	// ActionTeardown (0 = never). Any ACK-bearing client packet to a
	// tainted server elicits the tear-down, through the window's last
	// instant inclusive.
	Residual time.Duration
	// BlockBody is ActionBlockPage's HTML body; RedirectLocation is
	// ActionRedirect's Location; ForgedAddr is ActionForgeDNS's answer.
	BlockBody        string
	RedirectLocation string
	ForgedAddr       [4]byte
	// Metrics is the calibration's counter set.
	Metrics DPIMetrics
}

// DPIMetrics is a stateless-DPI censor's counter set. A calibration
// registers the counters it reports; the rest stay nil and count nothing.
type DPIMetrics struct {
	Pages      *obs.Counter // injected HTTP 200 block pages
	Redirects  *obs.Counter // injected HTTP 302 redirects
	RSTs       *obs.Counter // injected RSTs (block-page follow-ups, both tear-down sides)
	Blackholed *obs.Counter // packets dropped by a blackhole (its start plus the window)
	Forged     *obs.Counter // forged DNS responses
	Residual   *obs.Counter // tear-downs caused by residual censorship
}

// NewDPIMetrics registers the named counters under prefix. Names are the
// counters' suffixes: "injected_pages", "injected_redirects",
// "injected_rsts", "blackholed_drops", "forged_dns", "residual_hits". Call
// it from a package var block: registration panics on a duplicate name.
func NewDPIMetrics(prefix string, names ...string) DPIMetrics {
	var m DPIMetrics
	slots := map[string]**obs.Counter{
		"injected_pages":     &m.Pages,
		"injected_redirects": &m.Redirects,
		"injected_rsts":      &m.RSTs,
		"blackholed_drops":   &m.Blackholed,
		"forged_dns":         &m.Forged,
		"residual_hits":      &m.Residual,
	}
	for _, n := range names {
		slot, ok := slots[n]
		if !ok {
			panic("censor: unknown DPI counter " + n)
		}
		*slot = obs.NewCounter(prefix + n)
	}
	return m
}

// DPI is the stateless-DPI censor middlebox. Its only state is two window
// tables: blackholed flows, and (with Residual) tainted servers.
type DPI struct {
	Block Blocklist
	P     DPIParams
	// Censored counts censorship events.
	Censored int

	// cal is the calibration NewDPI was given, which Reset restores P to.
	cal        DPIParams
	blackholes Windows[packet.Flow]
	residual   ResidualTable
	// inj and name are Process's scratch: the injected packets, which the
	// verdict borrows, and the DNS name a query is read into.
	inj  Injections
	name []byte
}

// NewDPI builds the censor for a calibration.
func NewDPI(p DPIParams, bl Blocklist) *DPI {
	return &DPI{Block: bl, P: p, cal: p}
}

// Reset returns the censor to the state NewDPI left it in, keeping its
// tables' capacity: no events counted, no window open, and P back at the
// calibration. The model draws no randomness, so rng is unused.
func (d *DPI) Reset(*rand.Rand) {
	d.P, d.Censored = d.cal, 0
	d.blackholes.Reset()
	d.residual.Reset()
}

// Name implements netsim.Middlebox.
func (d *DPI) Name() string { return d.P.Name }

// CensoredCount returns the number of censorship events (eval harness
// interface).
func (d *DPI) CensoredCount() int { return d.Censored }

// Tracked reports how many windows the blackhole and residual tables
// hold, live or not yet swept.
func (d *DPI) Tracked() (blackholes, residual int) {
	return d.blackholes.Len(), d.residual.Len()
}

// ResidualDPI is a DPI censor whose calibration taints servers, exposed as
// a ResidualCarrier so the fleet's ledger can share its windows.
type ResidualDPI struct{ *DPI }

// ExportResidual implements ResidualCarrier.
func (r ResidualDPI) ExportResidual(now time.Duration, emit func(key string, remaining time.Duration)) {
	r.residual.ExportResidual(now, emit)
}

// SeedResidual implements ResidualCarrier.
func (r ResidualDPI) SeedResidual(key string, expiry time.Duration) {
	r.residual.SeedResidual(key, expiry)
}

// servicePort returns the default port whose engine inspects pkt, or 0 if
// none does.
func (d *DPI) servicePort(pkt *packet.Packet, dir netsim.Direction) uint16 {
	if !d.P.Bidirectional && dir != netsim.ToServer {
		return 0
	}
	for _, p := range [...]uint16{53, 80, 443} {
		if pkt.TCP.DstPort == p || (d.P.Bidirectional && pkt.TCP.SrcPort == p) {
			return p
		}
	}
	return 0
}

// isDNSQuery reports whether a DNS-over-TCP chunk frames a query (QR=0).
// The framing is a 2-byte length prefix, then the 12-byte header whose
// flags' top bit distinguishes queries from responses — without this check
// the engine would re-trigger on the real server's response, whose
// question section also carries the forbidden name.
func isDNSQuery(payload []byte) bool {
	return len(payload) >= 6 && payload[4]&0x80 == 0
}

// Process implements netsim.Middlebox. The verdict's injections borrow the
// censor's scratch until the next call.
func (d *DPI) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	d.inj.Reset()
	port := d.servicePort(pkt, dir)
	if port == 0 {
		return netsim.Verdict{}
	}
	// Active blackhole: silently drop everything the offending flow sends
	// until the window expires.
	if d.blackholes.Len() > 0 && d.blackholes.Live(pkt.Flow(), now) {
		d.P.Metrics.Blackholed.Inc()
		return netsim.Verdict{Drop: true, Note: "blackholed"}
	}
	// Residual censorship: a tainted server endpoint tears down every new
	// connection at its first ACK-bearing client packet.
	if d.residual.Len() > 0 && dir == netsim.ToServer && pkt.TCP.Flags&packet.FlagACK != 0 &&
		d.residual.Live(netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort), now) {
		d.Censored++
		d.P.Metrics.Residual.Inc()
		return d.teardown(pkt, dir, "residual censorship")
	}
	if len(pkt.TCP.Payload) == 0 {
		return netsim.Verdict{}
	}

	// Every engine is anchored at a well-formed single-packet message, so a
	// segment that starts mid-message is not recognized at all.
	var action Action
	var name []byte // the forbidden DNS name, which a forged response answers
	switch port {
	case 53:
		if d.P.DNS == ActionNone || !isDNSQuery(pkt.TCP.Payload) {
			break
		}
		n, ok := packet.ParseDNSQueryName(d.name[:0], pkt.TCP.Payload)
		d.name = n // keep the buffer's capacity for the next query
		if ok && d.Block.MatchDomain(n) {
			action, name = d.P.DNS, n
		}
	case 80:
		if d.P.HTTP == ActionNone {
			break
		}
		if d.Block.ForbiddenHost(pkt) {
			action = d.P.HTTP
		}
	case 443:
		if d.P.SNI == ActionNone {
			break
		}
		if sni, ok := packet.ParseTLSServerName(pkt.TCP.Payload); ok && d.Block.MatchDomain(sni) {
			action = d.P.SNI
		}
	}
	if action == ActionNone {
		return netsim.Verdict{}
	}
	d.Censored++
	note := actionNotes[action]

	// Stateless injection: all numbers are derived from the offending
	// packet. Replies go back toward its sender, impersonating the
	// receiver.
	back := pkt.Flow().Reverse()
	seq := pkt.TCP.Ack
	ack := pkt.TCP.Seq + uint32(len(pkt.TCP.Payload))
	switch action {
	case ActionBlockPage:
		page := BlockPage(back, seq, ack, d.P.BlockBody)
		rst := InjectRST(back, seq+uint32(len(page.TCP.Payload))+1, ack)
		d.P.Metrics.Pages.Inc()
		d.P.Metrics.RSTs.Inc()
		d.inj.Add(dir.Reverse(), page, rst)
	case ActionRedirect:
		d.P.Metrics.Redirects.Inc()
		d.inj.Add(dir.Reverse(), Redirect302(back, seq, ack, d.P.RedirectLocation))
	case ActionBlackhole:
		// Stored one tick short: the blackhole ends before start+window.
		d.blackholes.Open(pkt.Flow(), now, now+d.P.BlackholeWindow-1)
		d.P.Metrics.Blackholed.Inc()
		return netsim.Verdict{Drop: true, Note: note}
	case ActionTeardown:
		if d.P.Residual > 0 {
			// Taint the server endpoint: the side on the service port.
			srv := netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort)
			if dir == netsim.ToClient {
				srv = netip.AddrPortFrom(pkt.IP.Src, pkt.TCP.SrcPort)
			}
			d.residual.Open(srv, now, now+d.P.Residual)
		}
		return d.teardown(pkt, dir, note)
	default: // ActionForgeDNS
		d.P.Metrics.Forged.Inc()
		resp := packet.Get(back.SrcAddr, back.DstAddr, back.SrcPort, back.DstPort)
		resp.IP.TTL = 64
		resp.TCP.Flags = packet.FlagPSH | packet.FlagACK
		resp.TCP.Seq = seq
		resp.TCP.Ack = ack
		resp.TCP.Window = 65535
		resp.TCP.Payload = apps.AppendDNSResponse(resp.TCP.Payload[:0], name, d.P.ForgedAddr)
		d.inj.Add(dir.Reverse(), resp)
	}
	return d.inj.Verdict(false, note)
}

// teardown fabricates the two-sided tear-down: one RST toward the packet's
// receiver impersonating the sender, one toward the sender impersonating
// the receiver.
func (d *DPI) teardown(pkt *packet.Packet, dir netsim.Direction, note string) netsim.Verdict {
	end := pkt.TCP.Seq + uint32(len(pkt.TCP.Payload))
	fwd := InjectRST(pkt.Flow(), end, pkt.TCP.Ack)
	rev := InjectRST(pkt.Flow().Reverse(), pkt.TCP.Ack, end)
	d.P.Metrics.RSTs.Add(2)
	d.inj.Add(dir.Reverse(), rev)
	d.inj.Add(dir, fwd)
	return d.inj.Verdict(false, note)
}
