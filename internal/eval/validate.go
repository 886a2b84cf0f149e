package eval

import (
	"errors"
	"fmt"
	"strings"

	"geneva/internal/netsim"
)

// Sentinel errors for input validation, matchable with errors.Is. Every
// validation failure wraps one of these AND keeps the descriptive text
// naming the valid values — callers branch on the sentinel, humans read the
// message. The public facade re-exports them as geneva.ErrUnknownCountry /
// geneva.ErrUnknownProtocol.
var (
	ErrUnknownCountry  = errors.New("unknown country")
	ErrUnknownProtocol = errors.New("unknown protocol")
)

// Countries returns every country the harness can simulate — the censor
// registry's countries plus CountryNone (the public facade validates
// Simulation/Deployment inputs against this list instead of panicking deep
// inside a rig).
func Countries() []string {
	return append(CensoredCountries(), CountryNone)
}

// ValidCountry reports whether country names a modeled censor (or
// CountryNone, the uncensored private network).
func ValidCountry(country string) bool {
	if country == CountryNone {
		return true
	}
	_, ok := CensorByCountry(country)
	return ok
}

// CheckCountryProtocol validates a (country, protocol) pair, returning a
// descriptive error naming the valid values. The valid-country list is
// enumerated from the registry, so registering a censor surfaces it here
// with no further wiring. The harness's internal constructors (NewCensor,
// SessionFor) panic on unknown inputs by design — they only ever see
// validated values — so every public entry point calls this first.
func CheckCountryProtocol(country, protocol string) error {
	if !ValidCountry(country) {
		return fmt.Errorf("%w %q (valid: %q for %s, or %q for no censor)",
			ErrUnknownCountry, country, CensoredCountries(), strings.Join(censorDisplays(), ", "), CountryNone)
	}
	if !ValidProtocol(protocol) {
		return fmt.Errorf("%w %q (valid: %s)", ErrUnknownProtocol, protocol, strings.Join(Protocols(), ", "))
	}
	return nil
}

// CheckProfile validates an impairment profile: Loss, Duplicate and Reorder
// are probabilities in [0,1] (NaN is not), and Jitter is non-negative. The
// netsim layer does not check its inputs — a Loss of 2 simply drops every
// packet — so every public entry point taking a profile calls this first.
func CheckProfile(p netsim.Profile) error {
	for _, v := range []float64{p.Loss, p.Duplicate, p.Reorder} {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("impairment probabilities must lie in [0,1]: loss %v, duplicate %v, reorder %v",
				p.Loss, p.Duplicate, p.Reorder)
		}
	}
	if p.Jitter < 0 {
		return fmt.Errorf("impairment jitter %v is negative", p.Jitter)
	}
	return nil
}

func censorDisplays() []string {
	out := make([]string, len(censorRegistry))
	for i, d := range censorRegistry {
		out[i] = d.Display
	}
	return out
}
