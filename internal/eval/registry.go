package eval

import (
	"math/rand"
	"net/netip"
	"sync"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/censor/gfw"
	"geneva/internal/censor/india"
	"geneva/internal/censor/iran"
	"geneva/internal/censor/kazakh"
	"geneva/internal/censor/tmc"
	"geneva/internal/strategies"
)

// CensorDef is one row of the censor registry: everything the harness
// needs to enumerate a modeled censor — validation, construction, Table-2
// blocks, the robustness sweep, the §8 router, the fleet's per-country
// cells, and the cmd flag help all derive from this table. Registering a
// censor here is the whole wiring job; nothing else keeps a country list.
type CensorDef struct {
	// Country is the canonical key ("china", "india-jio", ...).
	Country string
	// Display is the human name used in docs and flag help.
	Display string
	// MetricLabel is the fleet's per-country obs label (underscored,
	// since metric names use dots as separators).
	MetricLabel string
	// Protocols are the application protocols this censor censors.
	Protocols []string
	// InPath marks censors that can drop packets (blackholing); on-path
	// censors only ever inject.
	InPath bool
	// RouterPrefix is the country's client prefix in the §8 deployment.
	RouterPrefix netip.Prefix
	// Deploy is the strategy the §8 router serves this country.
	Deploy strategies.Strategy
	// Table2 are the strategy rows of this censor's Table-2 block, below
	// the no-evasion baseline.
	Table2 []strategies.Strategy
	// New builds the middlebox.
	New func(bl censor.Blocklist, rng *rand.Rand) CensorCounter
}

// censorRegistry is the ordered registry. The order is load-bearing only
// for presentation (Table-2 block order, flag help, fleet default mix);
// all seeds key off country names or strategy numbers, never off registry
// position.
var censorRegistry = []CensorDef{
	{
		Country:      CountryChina,
		Display:      "China (GFW)",
		MetricLabel:  "china",
		Protocols:    []string{"dns", "ftp", "http", "https", "smtp"},
		RouterPrefix: netip.MustParsePrefix("10.1.0.0/16"),
		Deploy:       strategies.Strategy1,
		Table2:       strategies.China(),
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return gfw.New(bl, rng)
		},
	},
	{
		Country:      CountryIndia,
		Display:      "India (Airtel)",
		MetricLabel:  "india",
		Protocols:    []string{"http"},
		RouterPrefix: netip.MustParsePrefix("10.2.0.0/16"),
		Deploy:       strategies.Strategy8,
		Table2:       []strategies.Strategy{strategies.Strategy8},
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return india.NewAirtel(bl, rng)
		},
	},
	{
		Country:      CountryIndiaJio,
		Display:      "India (Jio)",
		MetricLabel:  "india_jio",
		Protocols:    []string{"https"},
		InPath:       true, // SNI-triggered blackholing drops packets
		RouterPrefix: netip.MustParsePrefix("10.5.0.0/16"),
		Deploy:       strategies.Strategy8,
		Table2:       []strategies.Strategy{strategies.Strategy8},
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return india.New(india.Jio(), bl, rng)
		},
	},
	{
		Country:      CountryIndiaVodafone,
		Display:      "India (Vodafone)",
		MetricLabel:  "india_vodafone",
		Protocols:    []string{"http"},
		RouterPrefix: netip.MustParsePrefix("10.6.0.0/16"),
		Deploy:       strategies.Strategy8,
		Table2:       []strategies.Strategy{strategies.Strategy8},
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return india.New(india.Vodafone(), bl, rng)
		},
	},
	{
		Country:      CountryIran,
		Display:      "Iran",
		MetricLabel:  "iran",
		Protocols:    []string{"http", "https"},
		InPath:       true,
		RouterPrefix: netip.MustParsePrefix("10.3.0.0/16"),
		Deploy:       strategies.Strategy8,
		Table2:       []strategies.Strategy{strategies.Strategy8},
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return iran.New(bl, rng)
		},
	},
	{
		Country:      CountryKazakhstan,
		Display:      "Kazakhstan",
		MetricLabel:  "kazakhstan",
		Protocols:    []string{"http"},
		InPath:       true,
		RouterPrefix: netip.MustParsePrefix("10.4.0.0/16"),
		Deploy:       strategies.Strategy11,
		Table2:       strategies.Kazakhstan(),
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return kazakh.New(bl, rng)
		},
	},
	{
		Country:      CountryTurkmenistan,
		Display:      "Turkmenistan (TMC)",
		MetricLabel:  "turkmenistan",
		Protocols:    []string{"dns", "http", "https"},
		RouterPrefix: netip.MustParsePrefix("10.7.0.0/16"),
		Deploy:       strategies.Strategy8,
		Table2:       []strategies.Strategy{strategies.Strategy8},
		New: func(bl censor.Blocklist, rng *rand.Rand) CensorCounter {
			return tmc.New(bl, rng)
		},
	},
}

// protocolDef is one row of the protocol table: everything a trial needs
// to know about an application protocol. Protocols, ValidProtocol,
// SessionFor, TriesFor and ProtocolFacts all read the table, and Trial
// turns a row into a trial Config; nothing else keeps a per-protocol fact.
type protocolDef struct {
	name string
	// seed offsets the seed of a per-protocol cell (Table 2, the
	// differential matrix, the robustness sweep), so one strategy's cells
	// on different protocols draw different trials.
	seed int64
	// tries is the client's connection budget: the paper tests DNS with
	// up to 3 tries (RFC 7766 retry behaviour), everything else with one.
	tries int
	// token occurs in the forbidden client transcript and not in the
	// benign one, so the §6 TTL-limited probes can target exactly the
	// censored query.
	token string
	// serverFirst marks a protocol whose server speaks first (FTP's 220
	// greeting): the GA then evolves the trigger instead of fixing it to
	// the SYN+ACK (§4.1).
	serverFirst bool
	// session builds the §4.2 exchange that triggers a country's censor;
	// pick chooses between the forbidden and the benign content.
	session func(country string, pick contentPick) *apps.Session
}

// contentPick returns forbidden or benign, whichever the session wants.
type contentPick func(forbidden, benign string) string

// protocolTable is the ordered protocol table; the order is Table 2's
// column order.
var protocolTable = []protocolDef{
	{name: "dns", seed: 1, tries: 3, token: "wikipedia",
		session: func(_ string, pick contentPick) *apps.Session {
			return apps.DNSSession(pick("www.wikipedia.org", "www.kernel.org"))
		}},
	{name: "ftp", seed: 2, tries: 1, token: "ultrasurf", serverFirst: true,
		session: func(_ string, pick contentPick) *apps.Session {
			return apps.FTPSession(pick("ultrasurf", "notes.txt"))
		}},
	{name: "http", seed: 3, tries: 1, token: "ultrasurf",
		session: func(country string, pick contentPick) *apps.Session {
			if country == CountryChina || country == CountryNone {
				// China: censored keyword in the URL parameters.
				return apps.HTTPQuerySession(pick("ultrasurf", "kittens"))
			}
			// India/Iran/Kazakhstan: blacklisted website in the Host header.
			return apps.HTTPHostSession(pick("blocked.example", "allowed.example"))
		}},
	{name: "https", seed: 4, tries: 1, token: "wikipedia",
		session: func(country string, pick contentPick) *apps.Session {
			if country == CountryIran {
				return apps.HTTPSSession(pick("youtube.com", "example.org"))
			}
			return apps.HTTPSSession(pick("www.wikipedia.org", "example.org"))
		}},
	{name: "smtp", seed: 5, tries: 1, token: "tibetalk",
		session: func(_ string, pick contentPick) *apps.Session {
			return apps.SMTPSession(pick("tibetalk@yahoo.com.cn", "friend@example.org"))
		}},
}

// protocolIndex returns a protocol's row index, or -1.
func protocolIndex(name string) int {
	for i := range protocolTable {
		if protocolTable[i].name == name {
			return i
		}
	}
	return -1
}

// protocolRow returns a protocol's row. Only validated names reach it, so
// an unknown one is a bug.
func protocolRow(name string) *protocolDef {
	i := protocolIndex(name)
	if i < 0 {
		panic("eval: unknown protocol " + name)
	}
	return &protocolTable[i]
}

// Protocols returns every application protocol the harness can speak, in
// Table 2's column order.
func Protocols() []string {
	out := make([]string, len(protocolTable))
	for i, p := range protocolTable {
		out[i] = p.name
	}
	return out
}

// ProtocolFacts returns the two facts of a protocol's row that the paper's
// experiments read: the seed offset of its per-protocol cells and the
// token only its forbidden transcript carries.
func ProtocolFacts(protocol string) (seedOffset int64, forbiddenToken string) {
	p := protocolRow(protocol)
	return p.seed, p.token
}

// ValidProtocol reports whether protocol names a modeled application session.
func ValidProtocol(protocol string) bool { return protocolIndex(protocol) >= 0 }

// TriesFor returns the protocol's connection attempts per trial.
func TriesFor(protocol string) int { return protocolRow(protocol).tries }

// sessionCache memoizes the prototypes SessionFor builds: encoding a DNS
// query or TLS ClientHello is pure, so the work is done once per
// (country, protocol, forbidden) and shared across every trial.
var sessionCache struct {
	sync.Mutex
	m map[sessionKey]*apps.Session
}

type sessionKey struct {
	country, protocol string
	forbidden         bool
}

// SessionFor builds the application exchange the paper uses to trigger each
// country's censorship (§4.2). forbidden=false swaps in benign content.
//
// Callers get a shallow copy of the cached prototype: the port-sensitivity
// follow-up retargets Session.Port, and the embedded template scripts are
// only ever copied per connection (apps.Scripts.Lease), never run or
// mutated, so sharing them is safe.
func SessionFor(country, protocol string, forbidden bool) *apps.Session {
	k := sessionKey{country, protocol, forbidden}
	sessionCache.Lock()
	proto, ok := sessionCache.m[k]
	if !ok {
		proto = protocolRow(protocol).session(country, func(bad, good string) string {
			if forbidden {
				return bad
			}
			return good
		})
		if sessionCache.m == nil {
			sessionCache.m = make(map[sessionKey]*apps.Session)
		}
		sessionCache.m[k] = proto
	}
	sessionCache.Unlock()
	s := *proto
	return &s
}

// Registry returns the censor registry (a copy of the slice; the defs
// themselves are shared and read-only).
func Registry() []CensorDef {
	out := make([]CensorDef, len(censorRegistry))
	copy(out, censorRegistry)
	return out
}

// CensorByCountry looks a country up in the registry.
func CensorByCountry(country string) (CensorDef, bool) {
	for _, d := range censorRegistry {
		if d.Country == country {
			return d, true
		}
	}
	return CensorDef{}, false
}

// CensoredCountries returns the registry's countries in order (without
// CountryNone).
func CensoredCountries() []string {
	out := make([]string, len(censorRegistry))
	for i, d := range censorRegistry {
		out[i] = d.Country
	}
	return out
}

// CensoredProtocols returns the protocols a country censors (nil for
// CountryNone or an unknown country).
func CensoredProtocols(country string) []string {
	if d, ok := CensorByCountry(country); ok {
		return d.Protocols
	}
	return nil
}
