package eval

import (
	"bytes"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"geneva/internal/allocs"
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
		if len(d.Table2) == 0 {
			t.Errorf("%s: no Table-2 strategies", d.Country)
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
	}
}

// clientTranscript is every byte a session's client sends.
func clientTranscript(s *apps.Session) []byte {
	c := s.NewClient()
	out := append([]byte(nil), c.SendOnEstablish...)
	for _, sp := range c.SendAt {
		out = append(out, sp.Data...)
	}
	return out
}

// TestProtocolTableWellFormed is the protocol table's structural contract:
// names unique and in report order, seed offsets unique (two protocols
// sharing one would run identical trials in every per-protocol cell),
// every retry budget at least one, a session for every country that speaks
// the row's protocol, and a forbidden token that picks out the forbidden
// client transcript and never the benign one (the §6 TTL probes rely on
// it).
func TestProtocolTableWellFormed(t *testing.T) {
	// China censors every protocol; its registry row lists them in the
	// order the reports print them.
	if got, want := Protocols(), CensoredProtocols(CountryChina); !slices.Equal(got, want) {
		t.Errorf("protocol table order %v, want report order %v", got, want)
	}
	names := map[string]bool{}
	seeds := map[int64]string{}
	for _, p := range protocolTable {
		if names[p.name] {
			t.Errorf("%s: duplicate protocol name", p.name)
		}
		names[p.name] = true
		if other, dup := seeds[p.seed]; dup {
			t.Errorf("%s: seed offset %d already used by %s", p.name, p.seed, other)
		}
		seeds[p.seed] = p.name
		if p.tries < 1 {
			t.Errorf("%s: retry budget %d < 1", p.name, p.tries)
		}
		for _, country := range Countries() {
			if got := SessionFor(country, p.name, true).Protocol; got != p.name {
				t.Errorf("%s/%q: session speaks %q", p.name, country, got)
			}
		}
		token := []byte(p.token)
		if !bytes.Contains(clientTranscript(SessionFor(CountryChina, p.name, true)), token) {
			t.Errorf("%s: token %q missing from the forbidden transcript", p.name, p.token)
		}
		if bytes.Contains(clientTranscript(SessionFor(CountryChina, p.name, false)), token) {
			t.Errorf("%s: token %q occurs in the benign transcript", p.name, p.token)
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
// censored connection through Process, an exact mean over many
// connections. Registering a censor means giving it a budget here. Parsing,
// matching and injecting allocate nothing, so a budget above 0 is the
// censor's table state alone:
//   - China and Kazakhstan keep every connection's flow until their flow
//     table evicts it, so each connection takes a fresh slot (flows.go's
//     `new(flowSlot[V])`) and, for China, fresh reassembly buffers for the
//     boxes that keep tracking it (box.go's `t.stream = append(...)`).
//     Kazakhstan's table also grows its index now and then.
//   - The windowed censors (Jio's and Iran's blackholes, Turkmenistan's
//     residual windows) open one window per connection and sweep expired
//     ones, and the map behind Windows grows about once per 1,000
//     connections under that churn (windows.go's Merge); how often
//     varies with the map's random hash seed.
var censorProcessBudget = map[string]float64{
	CountryChina:         5.0,
	CountryIndia:         0,
	CountryIndiaJio:      0.01,
	CountryIndiaVodafone: 0,
	CountryIran:          0.01,
	CountryKazakhstan:    1.1,
	CountryTurkmenistan:  0.01,
}

// censoredConnection returns a driver of one canned forbidden connection
// through a country's censor: handshake plus a triggering request, sent
// straight to Process. Connection i has addresses and a client port of its
// own and runs at i seconds. Every injected packet goes back to the pool
// right after its Process call, as the network recycles it once delivered.
func censoredConnection(country string) func(c CensorCounter, i int) {
	// The trigger: HTTPS censors that ignore port 80 get a forbidden
	// ClientHello; everyone else a forbidden GET.
	port := uint16(80)
	payload := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: www.wikipedia.org\r\n\r\n")
	if country == CountryIndiaJio {
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

	return func(c CensorCounter, i int) {
		cli := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
		srv := netip.AddrFrom4([4]byte{10, 8, byte(i >> 8), byte(i)})
		cport := uint16(32768 + i%16384)
		now := time.Duration(i) * time.Second
		for _, p := range []*packet.Packet{syn, ack, req} {
			p.IP.Src, p.IP.Dst = cli, srv
			p.TCP.SrcPort = cport
		}
		synack.IP.Src, synack.IP.Dst = srv, cli
		synack.TCP.DstPort = cport

		for _, p := range [...]*packet.Packet{syn, synack, ack, req} {
			dir := netsim.ToServer
			if p == synack {
				dir = netsim.ToClient
			}
			v := c.Process(p, dir, now)
			for _, inj := range v.InjectToClient {
				packet.Put(inj)
			}
			for _, inj := range v.InjectToServer {
				packet.Put(inj)
			}
		}
	}
}

// TestAllocBudgetCensorProcess pins the per-connection allocation cost of
// each registry censor's Process path. Each op drives one canned forbidden
// connection — handshake plus a triggering request — straight through the
// censor. Client and server addresses both vary per op, so no 4-tuple ever
// repeats and every op pays flow-table setup, DPI parse and teardown the way
// independent fleet connections do. The clock advances one second per op,
// and opening a window sweeps the expired ones, so the windowed censors
// (China's and Turkmenistan's residual windows, Iran's and Jio's
// blackholes) hold only their live windows instead of one per op. The mean
// is exact (allocs.Mean), over 2000 connections after 500 that let the
// censor's tables and the packet pool reach their steady state.
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
		connect := censoredConnection(def.Country)
		i := 0
		mean := allocs.Mean(500, 2000, func() {
			i++
			connect(c, i)
		})
		if c.CensoredCount() == 0 {
			t.Errorf("%s: canned forbidden connection was never censored; the budget is not measuring the censored path", def.Country)
		}
		t.Logf("%s: %.4f allocs per censored connection (budget %g)", def.Country, mean, budget)
		if mean > budget {
			t.Errorf("%s: censoring one connection allocates %.4f objects, budget is %g", def.Country, mean, budget)
		}
	}
}

// TestAllocBudgetCensorReset pins what keeping a censor across trials
// costs: after one censored connection, Reset allocates nothing, for every
// registry censor and so for each censor type (the GFW, DPI and its
// residual form, Kazakhstan). The first Reset is left out of the count:
// it grows the flow table's freelist to hold the slot the table made.
func TestAllocBudgetCensorReset(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	for _, def := range Registry() {
		rng := rand.New(rand.NewSource(1))
		c := def.New(censor.Default(), rng)
		connect := censoredConnection(def.Country)
		connect(c, 0)
		c.Reset(rng)
		var mallocs uint64
		var censored int
		var before, after runtime.MemStats
		for i := 1; i <= runs; i++ {
			connect(c, i)
			censored += c.CensoredCount()
			runtime.ReadMemStats(&before)
			c.Reset(rng)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		if censored == 0 {
			t.Errorf("%s: the canned connection was never censored; the budget is not measuring a reset of censor state", def.Country)
		}
		t.Logf("%s: %d allocs in %d resets (%d censored)", def.Country, mallocs, runs, censored)
		if mallocs != 0 {
			t.Errorf("%s: Reset allocates %.2f objects after a censored connection, budget is 0",
				def.Country, float64(mallocs)/runs)
		}
	}
}
