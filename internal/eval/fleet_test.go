package eval

import (
	"math/rand"
	"net/netip"
	"testing"

	"geneva/internal/censor"
	"geneva/internal/censor/gfw"
	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// fleetCensorSeed is a seed on which Strategy 1's resynchronization path
// fires (the run is fully deterministic, so one verified seed suffices).
const fleetCensorSeed = 7

// TestFleetOfClientsThroughOneGFW drives several clients through a single
// GFW instance concurrently (interleaved connections on one network),
// verifying the censor's per-flow TCBs stay isolated: the evading flows
// evade, and the unprotected forbidden flow is censored, all in the same
// packet stream.
func TestFleetOfClientsThroughOneGFW(t *testing.T) {
	session := SessionFor(CountryChina, "http", true)
	benign := SessionFor(CountryChina, "http", false)

	server := tcpstack.NewEndpoint(ServerAddr, tcpstack.DefaultServer, rand.New(rand.NewSource(1)))
	server.Listen(80)
	// The server serves both sessions; pick the app by the request it
	// receives. Simplest: a single factory keyed by nothing — both
	// sessions share the server script shape except the expected request,
	// so use a dispatcher that tolerates either.
	forbiddenSrv := session.ServerFactory()
	benignSrv := benign.ServerFactory()
	// Clients: .2 evades with Strategy 1 via the router, .3 is
	// unprotected, .4 fetches benign content.
	evader := tcpstack.NewEndpoint(netip.MustParseAddr("10.1.0.2"), tcpstack.DefaultClient, rand.New(rand.NewSource(2)))
	victim := tcpstack.NewEndpoint(netip.MustParseAddr("10.1.0.3"), tcpstack.DefaultClient, rand.New(rand.NewSource(3)))
	browser := tcpstack.NewEndpoint(netip.MustParseAddr("10.1.0.4"), tcpstack.DefaultClient, rand.New(rand.NewSource(4)))

	router := core.NewRouter(nil)
	// Strategy 1 is probabilistic (~54%); the fixed seeds below are chosen
	// so this deterministic run takes its successful path.
	router.Route(netip.MustParsePrefix("10.1.0.2/32"), strategies.Strategy1.Parse(), rand.New(rand.NewSource(5)))
	server.Outbound = router.Outbound

	// Dispatch server apps by client address: the victim and evader run
	// the forbidden session, the browser the benign one.
	server.NewServerApp = func(c *tcpstack.Conn) tcpstack.App {
		if c.Flow().DstAddr == browser.Addr() {
			return benignSrv(c)
		}
		return forbiddenSrv(c)
	}

	g := gfw.New(censor.Default(), rand.New(rand.NewSource(fleetCensorSeed)))
	n := netsim.NewMulti(server, []netsim.Host{evader, victim, browser}, g)
	evader.Attach(n)
	victim.Attach(n)
	browser.Attach(n)
	server.Attach(n)

	// Phase 1: the evader and the benign browser connect concurrently —
	// their packets interleave through one GFW — and both succeed.
	evaderApp := session.NewClient()
	browserApp := benign.NewClient()
	evader.Connect(ServerAddr, 80, evaderApp)
	browser.Connect(ServerAddr, 80, browserApp)
	n.Run(0)
	if !evaderApp.Succeeded() {
		t.Error("routed evader failed despite Strategy 8")
	}
	if !browserApp.Succeeded() {
		t.Error("benign flow was damaged")
	}

	// Phase 2: the unprotected victim sends the forbidden request and is
	// censored.
	victimApp := session.NewClient()
	victim.Connect(ServerAddr, 80, victimApp)
	n.Run(0)
	if victimApp.Succeeded() {
		t.Error("unprotected forbidden flow evaded; TCB cross-talk?")
	}
	if g.CensoredCount() == 0 {
		t.Error("the GFW never fired on the victim")
	}

	// Phase 3: residual censorship is collateral — even the benign
	// browser is now torn down when it reconnects to the same server:port
	// (§4.2), until the ~90 s window passes.
	collateral := benign.NewClient()
	browser.Connect(ServerAddr, 80, collateral)
	n.Run(0)
	if collateral.Succeeded() {
		t.Error("no residual collateral damage; the paper observed ~90s of it")
	}
	n.Clock.Advance(95e9) // 95 s
	recovered := benign.NewClient()
	browser.Connect(ServerAddr, 80, recovered)
	n.Run(0)
	if !recovered.Succeeded() {
		t.Error("browser still blocked after the residual window")
	}
}
