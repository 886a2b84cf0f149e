package eval

import (
	"fmt"
	"math/rand"
	"net/netip"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/tcpstack"
)

// Sandbox is the topology every simulation runs on: a server outside a
// country's censor and one client endpoint per slot inside it, on one
// virtual network. A trial rig wires it with one slot, a fleet cell with
// one per client. Reset is the only path that wires it, so a reused
// sandbox is in exactly the state a new one reaches.
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
}

// Seeds are the seeds of a sandbox's streams. Client slot s seeds at
// Clients + s. Each caller keeps its own layout of them (SeedSchedule for
// trials, the fleet manifest's for cells).
type Seeds struct{ Server, Censor, Impairments, Clients int64 }

// Gens are a sandbox's generators, one per stream of Seeds.
type Gens struct {
	Server, Censor, Impairments *rand.Rand
	Clients                     []*rand.Rand
}

// Reset wires the sandbox for one run, in place: the server at ServerAddr
// sending through out (nil = no strategy), a client of personality os at
// each of addrs, country's censor between them (kept and reset while the
// country is unchanged), and a network impaired by im, whose endpoints
// retransmit when it is impaired. Scripts leased through Lease go back
// first. The server serves every port's template registered with Serve;
// listening is the caller's.
func (sb *Sandbox) Reset(country string, addrs []netip.Addr, os tcpstack.Personality,
	out func(*packet.Packet) []*packet.Packet, im netsim.Impairments, seeds Seeds) {
	if sb.Net == nil {
		sb.Server, sb.Net = new(tcpstack.Endpoint), new(netsim.Network)
		sb.servers = map[uint16]*apps.Script{}
		sb.serveApp = sb.serve
	}
	sb.ReleaseLeased()
	g := &sb.Gens
	g.Server = Reseed(g.Server, seeds.Server)
	sb.Server.Reset(ServerAddr, tcpstack.DefaultServer, g.Server)
	sb.Server.Outbound, sb.Server.NewServerApp = out, sb.serveApp
	sb.Server.Retransmit = im.Enabled()
	sb.Server.Attach(sb.Net)
	sb.hosts = sb.hosts[:0]
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
