package eval

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/race"
)

// TestRegistryWellFormed is the structural contract every registry entry
// must satisfy: registering a censor with a hole in it (no metric label, a
// reused prefix, an unparseable deployment strategy) should fail here, not
// three layers away in the fleet or the router.
func TestRegistryWellFormed(t *testing.T) {
	countries := map[string]bool{}
	labels := map[string]bool{}
	prefixes := map[string]bool{}
	for _, d := range Registry() {
		if d.Country == "" || d.Display == "" || d.MetricLabel == "" {
			t.Errorf("%q: Country/Display/MetricLabel must all be set (%q, %q)", d.Country, d.Display, d.MetricLabel)
		}
		if d.Country == CountryNone {
			t.Errorf("CountryNone must not be registered as a censor")
		}
		if countries[d.Country] {
			t.Errorf("%s: duplicate country key", d.Country)
		}
		countries[d.Country] = true
		if labels[d.MetricLabel] {
			t.Errorf("%s: metric label %q reused", d.Country, d.MetricLabel)
		}
		labels[d.MetricLabel] = true
		if strings.ContainsAny(d.MetricLabel, ".- ") {
			t.Errorf("%s: metric label %q must be a bare underscored word (dots separate metric fields)", d.Country, d.MetricLabel)
		}
		if len(d.Protocols) == 0 {
			t.Errorf("%s: censors at least one protocol", d.Country)
		}
		for _, p := range d.Protocols {
			if !ValidProtocol(p) {
				t.Errorf("%s: censored protocol %q is not a modeled protocol", d.Country, p)
			}
		}
		if !d.RouterPrefix.IsValid() {
			t.Errorf("%s: router prefix invalid", d.Country)
		} else if prefixes[d.RouterPrefix.String()] {
			t.Errorf("%s: router prefix %s reused", d.Country, d.RouterPrefix)
		}
		prefixes[d.RouterPrefix.String()] = true
		if d.Deploy.Number == 0 {
			t.Errorf("%s: no §8 deployment strategy", d.Country)
		}
		if d.Deploy.Parse() == nil {
			t.Errorf("%s: deployment strategy does not parse", d.Country)
		}
		if d.Country != CountryChina && len(d.Table2) == 0 {
			t.Errorf("%s: no Table-2 strategies (only China's block is built specially)", d.Country)
		}
		if d.New == nil {
			t.Fatalf("%s: no constructor", d.Country)
		}
		c := d.New(censor.Default(), rand.New(rand.NewSource(1)))
		if c == nil {
			t.Fatalf("%s: constructor returned nil", d.Country)
		}
		if n := c.CensoredCount(); n != 0 {
			t.Errorf("%s: fresh censor reports %d censored flows", d.Country, n)
		}
		// The Residual flag is the fleet ledger's contract: flagged censors
		// must speak censor.ResidualCarrier, unflagged ones must not (or the
		// fleet would silently drop their cross-connection state).
		_, carrier := c.(censor.ResidualCarrier)
		if carrier != d.Residual {
			t.Errorf("%s: Residual=%v but ResidualCarrier=%v", d.Country, d.Residual, carrier)
		}
	}
}

// TestRegistrySurfacesEverywhere is the latent-assumption regression: adding
// a registry row must be the WHOLE wiring job. Every enumeration the harness
// exposes — validation, the error text a user sees for a bad country, the
// router's prefix map, NewCensor construction — is checked against the
// registry, so a censor registered without surfacing anywhere fails here.
func TestRegistrySurfacesEverywhere(t *testing.T) {
	err := CheckCountryProtocol("atlantis", "http")
	if err == nil {
		t.Fatal("unknown country must be rejected")
	}
	msg := err.Error()
	for _, d := range Registry() {
		if !ValidCountry(d.Country) {
			t.Errorf("%s: registered but not a valid country", d.Country)
		}
		if CheckCountryProtocol(d.Country, d.Protocols[0]) != nil {
			t.Errorf("%s: registered but CheckCountryProtocol rejects it", d.Country)
		}
		if !strings.Contains(msg, d.Country) {
			t.Errorf("unknown-country error does not name %q:\n%s", d.Country, msg)
		}
		if !strings.Contains(msg, d.Display) {
			t.Errorf("unknown-country error does not name %q:\n%s", d.Display, msg)
		}
		if _, ok := RouterPrefixes[d.Country]; !ok {
			t.Errorf("%s: no §8 router prefix", d.Country)
		}
		if got := CensoredProtocols(d.Country); len(got) != len(d.Protocols) {
			t.Errorf("%s: CensoredProtocols = %v, want %v", d.Country, got, d.Protocols)
		}
		if c := NewCensor(d.Country, censor.Default(), rand.New(rand.NewSource(2))); c == nil {
			t.Errorf("%s: NewCensor returned nil", d.Country)
		}
	}
	if got, want := len(Countries()), len(Registry())+1; got != want {
		t.Errorf("Countries() has %d entries, want %d (registry + %q)", got, want, CountryNone)
	}
	found := false
	for _, c := range Countries() {
		if c == CountryNone {
			found = true
		}
	}
	if !found {
		t.Errorf("Countries() lost %q", CountryNone)
	}
}

// TestRegistryProtocolsAreHonest closes the loop behaviourally: for every
// registry row, each protocol it claims to censor is actually censored by
// the constructed middlebox (a forbidden no-evasion session fails), and
// each protocol it does not claim is left alone (the same forbidden session
// succeeds). A row claiming "https" for a censor that never parses a
// ClientHello would pass every structural check and still be a lie.
func TestRegistryProtocolsAreHonest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full trial per (censor, protocol) cell")
	}
	for _, d := range Registry() {
		claimed := map[string]bool{}
		for _, p := range d.Protocols {
			claimed[p] = true
		}
		for _, proto := range Protocols() {
			cfg := Config{
				Country: d.Country,
				Session: SessionFor(d.Country, proto, true),
				Tries:   TriesFor(proto),
				Seed:    61,
			}
			res := Run(cfg)
			if claimed[proto] && res.Success {
				t.Errorf("%s: claims to censor %s but a forbidden session sailed through", d.Country, proto)
			}
			if !claimed[proto] && !res.Success {
				t.Errorf("%s: does not claim %s but the session failed anyway (%d censor events)",
					d.Country, proto, res.CensorEvents)
			}
		}
	}
}

// censorProcessBudget is each registry censor's allocation budget for one
// censored connection through Process: the measured steady state plus 10%,
// floored. Registering a censor means giving it a budget here.
var censorProcessBudget = map[string]float64{
	CountryChina:         15,
	CountryIndia:         8,
	CountryIndiaJio:      2,
	CountryIndiaVodafone: 8,
	CountryIran:          2,
	CountryKazakhstan:    8,
	CountryTurkmenistan:  7,
}

// TestAllocBudgetCensorProcess pins the per-connection allocation cost of
// each registry censor's Process path. Each op drives one canned forbidden
// connection — handshake plus a triggering request — straight through the
// censor. Client and server addresses both vary per op, so no 4-tuple ever
// repeats and every op pays flow-table setup, DPI parse and teardown the way
// independent fleet connections do. The clock advances one second per op,
// and opening a window sweeps the expired ones, so the windowed censors
// (China's and Turkmenistan's residual windows, Iran's and Jio's
// blackholes) hold only their live windows instead of one per op.
func TestAllocBudgetCensorProcess(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	for _, def := range Registry() {
		budget, ok := censorProcessBudget[def.Country]
		if !ok {
			t.Errorf("%s: registered censor has no allocation budget", def.Country)
			continue
		}
		c := def.New(censor.Default(), rand.New(rand.NewSource(1)))

		// The trigger: HTTPS censors that ignore port 80 get a forbidden
		// ClientHello; everyone else a forbidden GET.
		port := uint16(80)
		payload := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: www.wikipedia.org\r\n\r\n")
		if def.Country == CountryIndiaJio {
			port = 443
			payload = apps.EncodeClientHello("youtube.com")
		}
		syn := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0, port)
		syn.TCP.Flags = packet.FlagSYN
		syn.TCP.Seq = 1000
		synack := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), port, 0)
		synack.TCP.Flags = packet.FlagSYN | packet.FlagACK
		synack.TCP.Seq = 5000
		synack.TCP.Ack = 1001
		ack := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0, port)
		ack.TCP.Flags = packet.FlagACK
		ack.TCP.Seq = 1001
		ack.TCP.Ack = 5001
		req := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0, port)
		req.TCP.Flags = packet.FlagPSH | packet.FlagACK
		req.TCP.Seq = 1001
		req.TCP.Ack = 5001
		req.TCP.Payload = payload

		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			i++
			cli := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
			srv := netip.AddrFrom4([4]byte{10, 8, byte(i >> 24), byte(i >> 16)})
			cport := uint16(32768 + i%16384)
			now := time.Duration(i) * time.Second
			for _, p := range []*packet.Packet{syn, ack, req} {
				p.IP.Src, p.IP.Dst = cli, srv
				p.TCP.SrcPort = cport
			}
			synack.IP.Src, synack.IP.Dst = srv, cli
			synack.TCP.DstPort = cport
			// A fleet connection arrives with an unparsed payload; clearing
			// the memo charges this op the parse, like the first censor on a
			// real path pays it.
			req.ClearAppView()

			c.Process(syn, netsim.ToServer, now)
			c.Process(synack, netsim.ToClient, now)
			c.Process(ack, netsim.ToServer, now)
			c.Process(req, netsim.ToServer, now)
		})
		if c.CensoredCount() == 0 {
			t.Errorf("%s: canned forbidden connection was never censored; the budget is not measuring the censored path", def.Country)
		}
		t.Logf("%s: %.0f allocs per censored connection (budget %.0f)", def.Country, allocs, budget)
		if allocs > budget {
			t.Errorf("%s: censoring one connection allocates %.0f objects, budget is %.0f", def.Country, allocs, budget)
		}
	}
}
