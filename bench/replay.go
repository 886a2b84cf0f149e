package main

import "geneva"

// replayStats is what a replay did, counted at the layer boundaries.
type replayStats struct {
	// ops is the replay's work in the end-to-end metrics' unit.
	ops int
	// events is the number of netsim events Network.Run processed.
	events int64
	// censored counts censorship events per registry country.
	censored []int

	// Fleet tallies.
	conns, served, tornDown, attempts, requestsServed int
	fallbacks, ledgerSeeded                           int
	perCountry                                        map[string]*countryTally

	// Training tallies.
	trials, succeeded    int
	hits, misses, dedups int

	// delta sums the absolute differences between the replay's outcome
	// counts and the program's; 0 when the replay reproduced the run.
	delta int
}

type countryTally struct {
	conns, served, requestsServed, censorEvents int
}

func (s *replayStats) country(c string) *countryTally {
	if s.perCountry == nil {
		s.perCountry = map[string]*countryTally{}
	}
	t := s.perCountry[c]
	if t == nil {
		t = &countryTally{}
		s.perCountry[c] = t
	}
	return t
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// fleetDelta compares the replay's tallies with the program's result.
func (s *replayStats) fleetDelta(ref geneva.FleetResult) int {
	d := absInt(s.conns-ref.Connections) + absInt(s.served-ref.Succeeded) +
		absInt(s.requestsServed-ref.RequestsServed) + absInt(s.tornDown-ref.Outcomes["torn_down"]) +
		absInt(s.fallbacks-ref.Fallbacks)
	attempts := ref.Connections
	for c, cs := range ref.PerCountry {
		attempts += cs.Reconnects
		t := s.country(c)
		d += absInt(t.conns-cs.Connections) + absInt(t.served-cs.Succeeded) +
			absInt(t.requestsServed-cs.RequestsServed) + absInt(t.censorEvents-cs.CensorEvents)
	}
	return d + absInt(s.attempts-attempts)
}
