package eval

import (
	"math/rand"
	"net/netip"

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

// SweepProtocol returns the protocol single-protocol experiments (the
// robustness sweep, the §8 router) exercise against a country's censor:
// HTTP where it is censored, otherwise the censor's first censored
// protocol. CountryNone sweeps HTTP (nothing is censored anyway).
func SweepProtocol(country string) string {
	d, ok := CensorByCountry(country)
	if !ok {
		return "http"
	}
	for _, p := range d.Protocols {
		if p == "http" {
			return p
		}
	}
	return d.Protocols[0]
}
