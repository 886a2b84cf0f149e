package eval

import (
	"fmt"
	"math/rand"
	"net/netip"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/tcpstack"
)

// Sandbox is the topology every simulation runs on: a server outside a
// country's censor and one client endpoint per slot inside it, on one
// virtual network. A trial rig wires it with one slot, a fleet cell with
// one per client. Reset is the only path that wires it, so a reused
// sandbox is in exactly the state a new one reaches.
//
// Its server serves the run's strategies as §8's does: each packet goes
// through the engine Pin chose for the slot at its destination address.
type Sandbox struct {
	Server *tcpstack.Endpoint
	// Clients holds one endpoint per slot. A reused sandbox may hold more
	// than the last Reset wired; only those are on the network.
	Clients []*tcpstack.Endpoint
	Net     *netsim.Network
	Censor  CensorCounter
	// Scripts recycles the application scripts the sandbox runs.
	Scripts apps.Scripts
	// Gens holds one generator per stream. The sandbox owns them for life
	// and Reset reseeds them; each is created on first use.
	Gens Gens

	country  string                  // the country Censor was built for
	hosts    []netsim.Host           // the wired slots
	servers  map[uint16]*apps.Script // server templates by port
	leased   []*apps.Script
	serveApp func(*tcpstack.Conn) tcpstack.App

	arms     []arm          // one per strategy; may outnumber the last Reset's
	pins     []*core.Engine // pins[s]: the engine Pin chose for slot s (nil = none)
	pass     [1]*packet.Packet
	outbound func(*packet.Packet) []*packet.Packet // route, bound once
}

// arm is an engine running a private clone of the strategy whose
// canonical text is text.
type arm struct {
	engine *core.Engine
	text   string
}

// Seeds are the seeds of a sandbox's streams. Client slot s seeds at
// Clients + s, and arm a at Arms + a. Each caller keeps its own layout of
// them (SeedSchedule for trials, the fleet manifest's for cells).
type Seeds struct{ Server, Censor, Impairments, Clients, Arms int64 }

// Gens are a sandbox's generators, one per stream of Seeds.
type Gens struct {
	Server, Censor, Impairments *rand.Rand
	Clients, Arms               []*rand.Rand
}

// Reset wires the sandbox for one run, in place: the server at ServerAddr
// serving strats (empty for none) with no slot pinned, a client of
// personality os at each of addrs, country's censor between them (kept and
// reset while the country is unchanged), and a network impaired by im,
// whose endpoints retransmit when it is impaired. Arm a's engine is kept
// while strats[a] prints the same, whatever its pointer (the GA mutates
// and rescores one pointer); otherwise it is rebuilt from a clone, which
// no later mutation reaches. Scripts leased through Lease go back first.
// The server serves every port's template registered with Serve;
// listening is the caller's.
func (sb *Sandbox) Reset(country string, addrs []netip.Addr, os tcpstack.Personality,
	strats []*core.Strategy, im netsim.Impairments, seeds Seeds) {
	if sb.Net == nil {
		sb.Server, sb.Net = new(tcpstack.Endpoint), new(netsim.Network)
		sb.servers = map[uint16]*apps.Script{}
		sb.serveApp = sb.serve
		sb.outbound = sb.route
	}
	sb.ReleaseLeased()
	g := &sb.Gens
	for a, s := range strats {
		if a == len(sb.arms) {
			sb.arms = append(sb.arms, arm{})
			g.Arms = append(g.Arms, nil)
		}
		g.Arms[a] = Reseed(g.Arms[a], seeds.Arms+int64(a))
		if text := s.String(); sb.arms[a].engine == nil || text != sb.arms[a].text {
			sb.arms[a] = arm{engine: core.NewEngine(s.Clone(), g.Arms[a]), text: text}
		}
	}
	g.Server = Reseed(g.Server, seeds.Server)
	sb.Server.Reset(ServerAddr, tcpstack.DefaultServer, g.Server)
	sb.Server.Outbound, sb.Server.NewServerApp = sb.outbound, sb.serveApp
	sb.Server.Retransmit = im.Enabled()
	sb.Server.Attach(sb.Net)
	sb.hosts, sb.pins = sb.hosts[:0], sb.pins[:0]
	for s, addr := range addrs {
		if s == len(sb.Clients) {
			sb.Clients = append(sb.Clients, new(tcpstack.Endpoint))
			g.Clients = append(g.Clients, nil)
		}
		g.Clients[s] = Reseed(g.Clients[s], seeds.Clients+int64(s))
		ep := sb.Clients[s]
		ep.Reset(addr, os, g.Clients[s])
		ep.Retransmit = im.Enabled()
		ep.Attach(sb.Net)
		sb.hosts = append(sb.hosts, ep)
		sb.pins = append(sb.pins, nil)
	}

	g.Censor = Reseed(g.Censor, seeds.Censor)
	switch {
	case country != sb.country:
		sb.Censor = NewCensor(country, censor.Default(), g.Censor)
		sb.country = country
	case sb.Censor != nil:
		sb.Censor.Reset(g.Censor)
	}
	// The endpoints went first because the network's client table needs
	// their new addresses; nothing runs in between, so no timer of the
	// last run can fire into a recycled connection.
	if sb.Censor != nil {
		sb.Net.ResetMulti(sb.Server, sb.hosts, sb.Censor)
	} else {
		sb.Net.ResetMulti(sb.Server, sb.hosts)
	}
	// Recycling is safe because every component — endpoints, censors,
	// apps — copies what it keeps and never retains a delivered *Packet
	// (a Trace clones what it records).
	sb.Net.RecyclePackets = true
	if im.Enabled() {
		g.Impairments = Reseed(g.Impairments, seeds.Impairments)
		sb.Net.SetImpairments(im, g.Impairments)
	}
}

// Pin serves slot's packets, from the next one the server sends, with the
// engine of arm, one of the last Reset's strategies.
func (sb *Sandbox) Pin(slot, arm int) { sb.pins[slot] = sb.arms[arm].engine }

// route is the server's Outbound: each packet goes through the engine
// pinned to the slot it is addressed to, or passes through unchanged. The
// result is valid until the next call, as Engine.Outbound's is.
func (sb *Sandbox) route(p *packet.Packet) []*packet.Packet {
	for s, e := range sb.pins {
		if e != nil && sb.Clients[s].Addr() == p.IP.Dst {
			return e.Outbound(p)
		}
	}
	sb.pass[0] = p
	return sb.pass[:1]
}

// NewCensor builds the middlebox for a country, or nil for CountryNone.
// The registry is the single source of truth: adding a CensorDef makes the
// country constructible here with no further wiring.
func NewCensor(country string, bl censor.Blocklist, rng *rand.Rand) CensorCounter {
	if country == CountryNone {
		return nil
	}
	if d, ok := CensorByCountry(country); ok {
		return d.New(bl, rng)
	}
	panic(fmt.Sprintf("eval: unknown country %q", country))
}

// CensorEvents returns the censor's event count (0 with no censor).
func (sb *Sandbox) CensorEvents() int {
	if sb.Censor == nil {
		return 0
	}
	return sb.Censor.CensoredCount()
}

// Serve registers tmpl as the server template of port: every connection
// the server accepts on port runs a copy of it. Registrations outlive
// Reset; a port the server no longer listens on accepts nothing.
func (sb *Sandbox) Serve(port uint16, tmpl *apps.Script) { sb.servers[port] = tmpl }

// serve is the server's NewServerApp: a copy of the template of the port
// the client connected to.
func (sb *Sandbox) serve(conn *tcpstack.Conn) tcpstack.App {
	return sb.Lease(sb.servers[conn.Flow().SrcPort])
}

// Lease copies tmpl into a recycled script that ReleaseLeased, or the next
// Reset, hands back.
func (sb *Sandbox) Lease(tmpl *apps.Script) *apps.Script {
	s := sb.Scripts.Lease(tmpl)
	sb.leased = append(sb.leased, s)
	return s
}

// ReleaseLeased hands back every script Lease has handed out since the
// last release. None may run again.
func (sb *Sandbox) ReleaseLeased() {
	sb.Scripts.Release(sb.leased...)
	sb.leased = sb.leased[:0]
}
