package eval

import (
	"net/netip"
	"testing"

	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// fleetSeeds seed the sandbox of TestFleetOfClientsThroughOneGFW: the
// server at 1, the evader, victim and browser slots at 2–4, Strategy 1's
// arm at 5 and the GFW at 7. Strategy 1 is probabilistic (~54%), and on
// these seeds its resynchronization path fires (the run is fully
// deterministic, so one verified set suffices).
var fleetSeeds = Seeds{Server: 1, Clients: 2, Arms: 5, Censor: 7}

// TestFleetOfClientsThroughOneGFW drives several clients through a single
// GFW instance concurrently (interleaved connections on one network),
// verifying the censor's per-flow TCBs stay isolated: the evading flows
// evade, and the unprotected forbidden flow is censored, all in the same
// packet stream.
func TestFleetOfClientsThroughOneGFW(t *testing.T) {
	session := SessionFor(CountryChina, "http", true)
	benign := SessionFor(CountryChina, "http", false)

	// Clients: slot 0 evades with Strategy 1, slot 1 is unprotected, slot
	// 2 fetches benign content.
	addrs := []netip.Addr{
		RoutedClientAddr(CountryChina, 0),
		RoutedClientAddr(CountryChina, 1),
		RoutedClientAddr(CountryChina, 2),
	}
	var sb Sandbox
	sb.Reset(CountryChina, addrs, tcpstack.DefaultClient,
		[]*core.Strategy{strategies.Strategy1.Parse()}, netsim.Impairments{}, fleetSeeds)
	sb.Pin(0, 0)
	evader, victim, browser := sb.Clients[0], sb.Clients[1], sb.Clients[2]
	// Dispatch server apps by client address: the victim and evader run
	// the forbidden session, the browser the benign one.
	sb.Server.NewServerApp = func(c *tcpstack.Conn) tcpstack.App {
		if c.Flow().DstAddr == browser.Addr() {
			return sb.Lease(benign.Server())
		}
		return sb.Lease(session.Server())
	}
	sb.Server.Listen(80)
	n := sb.Net

	// Phase 1: the evader and the benign browser connect concurrently —
	// their packets interleave through one GFW — and both succeed.
	evaderApp := sb.Lease(session.Client())
	browserApp := sb.Lease(benign.Client())
	evader.Connect(ServerAddr, 80, evaderApp)
	browser.Connect(ServerAddr, 80, browserApp)
	n.Run(0)
	if !evaderApp.Succeeded() {
		t.Error("routed evader failed despite Strategy 1")
	}
	if !browserApp.Succeeded() {
		t.Error("benign flow was damaged")
	}

	// Phase 2: the unprotected victim sends the forbidden request and is
	// censored.
	victimApp := sb.Lease(session.Client())
	victim.Connect(ServerAddr, 80, victimApp)
	n.Run(0)
	if victimApp.Succeeded() {
		t.Error("unprotected forbidden flow evaded; TCB cross-talk?")
	}
	if sb.CensorEvents() == 0 {
		t.Error("the GFW never fired on the victim")
	}

	// Phase 3: residual censorship is collateral — even the benign
	// browser is now torn down when it reconnects to the same server:port
	// (§4.2), until the ~90 s window passes.
	collateral := sb.Lease(benign.Client())
	browser.Connect(ServerAddr, 80, collateral)
	n.Run(0)
	if collateral.Succeeded() {
		t.Error("no residual collateral damage; the paper observed ~90s of it")
	}
	n.Clock.Advance(95e9) // 95 s
	recovered := sb.Lease(benign.Client())
	browser.Connect(ServerAddr, 80, recovered)
	n.Run(0)
	if !recovered.Succeeded() {
		t.Error("browser still blocked after the residual window")
	}
}
