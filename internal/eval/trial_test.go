package eval

import (
	"math/rand"
	"testing"

	"geneva/internal/netsim"
	"geneva/internal/strategies"
)

func TestNoCensorAllProtocolsSucceed(t *testing.T) {
	for _, proto := range CensoredProtocols(CountryChina) {
		cfg := Config{
			Country: CountryNone,
			Session: SessionFor(CountryNone, proto, true),
			Seed:    1,
		}
		res := Run(cfg)
		if !res.Success {
			t.Errorf("%s: failed with no censor present", proto)
		}
	}
}

func TestChinaCensorsForbiddenContent(t *testing.T) {
	for _, proto := range CensoredProtocols(CountryChina) {
		cfg := Config{
			Country: CountryChina,
			Session: SessionFor(CountryChina, proto, true),
			Tries:   1,
			Seed:    2,
		}
		rate := Rate(cfg, 40)
		max := 0.15
		if proto == "smtp" {
			max = 0.45 // SMTP's baseline miss rate is 26% in the paper
		}
		if rate > max {
			t.Errorf("%s: no-evasion success rate %.2f, want censorship", proto, rate)
		}
	}
}

func TestChinaAllowsBenignContent(t *testing.T) {
	for _, proto := range CensoredProtocols(CountryChina) {
		cfg := Config{
			Country: CountryChina,
			Session: SessionFor(CountryChina, proto, false),
			Seed:    3,
		}
		res := Run(cfg)
		if !res.Success {
			t.Errorf("%s: benign request failed through the GFW", proto)
		}
		if res.CensorEvents != 0 {
			t.Errorf("%s: benign request triggered censorship", proto)
		}
	}
}

func TestStrategy1EvadesChinaHTTP(t *testing.T) {
	s := strategies.Strategy1.Parse()
	cfg := Config{
		Country:  CountryChina,
		Session:  SessionFor(CountryChina, "http", true),
		Strategy: s,
		Seed:     4,
	}
	rate := Rate(cfg, 100)
	if rate < 0.35 || rate > 0.75 {
		t.Errorf("Strategy 1 HTTP success rate %.2f, paper: 54%%", rate)
	}
}

func TestStrategy1DNSRetriesAmplify(t *testing.T) {
	s := strategies.Strategy1.Parse()
	cfg := Config{
		Country:  CountryChina,
		Session:  SessionFor(CountryChina, "dns", true),
		Strategy: s,
		Tries:    3,
		Seed:     5,
	}
	rate := Rate(cfg, 100)
	if rate < 0.75 {
		t.Errorf("Strategy 1 DNS (3 tries) success rate %.2f, paper: 89%%", rate)
	}
}

func TestStrategy8Kazakhstan100(t *testing.T) {
	for _, s := range strategies.Kazakhstan() {
		cfg := Config{
			Country:  CountryKazakhstan,
			Session:  SessionFor(CountryKazakhstan, "http", true),
			Strategy: s.Parse(),
			Seed:     6,
		}
		rate := Rate(cfg, 20)
		if rate != 1.0 {
			t.Errorf("Strategy %d in Kazakhstan: %.2f, paper: 100%%", s.Number, rate)
		}
	}
}

func TestKazakhstanCensorsWithoutEvasion(t *testing.T) {
	cfg := Config{
		Country: CountryKazakhstan,
		Session: SessionFor(CountryKazakhstan, "http", true),
		Seed:    7,
	}
	res := Run(cfg)
	if res.Success {
		t.Error("forbidden HTTP through Kazakhstan succeeded without evasion")
	}
	if res.CensorEvents == 0 {
		t.Error("Kazakhstan censor did not fire")
	}
}

func TestIndiaAndIranStrategy8(t *testing.T) {
	for _, country := range []string{CountryIndia, CountryIran} {
		base := Config{
			Country: country,
			Session: SessionFor(country, "http", true),
			Seed:    8,
		}
		if Run(base).Success {
			t.Errorf("%s: no-evasion HTTP succeeded", country)
		}
		withS8 := base
		withS8.Strategy = strategies.Strategy8.Parse()
		if rate := Rate(withS8, 20); rate != 1.0 {
			t.Errorf("%s: Strategy 8 rate %.2f, paper: 100%%", country, rate)
		}
	}
}

func TestIranHTTPSAndStrategy8(t *testing.T) {
	base := Config{
		Country: CountryIran,
		Session: SessionFor(CountryIran, "https", true),
		Seed:    9,
	}
	if Run(base).Success {
		t.Error("Iran: no-evasion HTTPS succeeded")
	}
	withS8 := base
	withS8.Strategy = strategies.Strategy8.Parse()
	if rate := Rate(withS8, 20); rate != 1.0 {
		t.Errorf("Iran HTTPS Strategy 8 rate %.2f, paper: 100%%", rate)
	}
}

func TestOtherProtocolsUncensoredOutsideChina(t *testing.T) {
	for _, country := range []string{CountryIndia, CountryIran, CountryKazakhstan} {
		for _, proto := range []string{"dns", "ftp", "smtp"} {
			cfg := Config{
				Country: country,
				Session: SessionFor(country, proto, true),
				Tries:   TriesFor(proto),
				Seed:    10,
			}
			if !Run(cfg).Success {
				t.Errorf("%s/%s: should be uncensored (Table 2: 100%%)", country, proto)
			}
		}
	}
}

func TestKazakhstanHTTPSInactive(t *testing.T) {
	cfg := Config{
		Country: CountryKazakhstan,
		Session: SessionFor(CountryKazakhstan, "https", true),
		Seed:    11,
	}
	if !Run(cfg).Success {
		t.Error("Kazakhstan HTTPS censorship should be inactive (§5.3)")
	}
}

// TestSeedScheduleMatchesRig checks that each stream offset SeedSchedule
// records reproduces the generator NewRig draws that stream from: the
// next draw on each generator the rig and its sandbox own is one of the
// first draws of a fresh generator at the trial seed plus the recorded
// offset (the endpoints draw a few values while the rig is built).
func TestSeedScheduleMatchesRig(t *testing.T) {
	const seed = 4242
	s1, _ := strategies.ByNumber(1)
	rig := NewRig(Config{
		Country:     CountryChina,
		Session:     SessionFor(CountryChina, "http", true),
		Strategy:    s1.Parse(),
		Seed:        seed,
		Impairments: netsim.Symmetric(netsim.Profile{Loss: 0.01}),
	})
	sched := SeedSchedule(seed)
	// The rig's generators, in stream-offset order.
	order := []string{"client", "server", "engine", "censor", "impairments"}
	gens := []*rand.Rand{rig.Gens.Clients[0], rig.Gens.Server, rig.engineRng, rig.Gens.Censor, rig.Gens.Impairments}
	if len(rig.Gens.Clients) != 1 || len(sched.Streams) != len(order) {
		t.Fatalf("rig holds %d client streams, schedule records %d streams, want 1 and %d",
			len(rig.Gens.Clients), len(sched.Streams), len(order))
	}
	for i, name := range order {
		off, ok := sched.Streams[name]
		if !ok {
			t.Fatalf("schedule records no %q stream", name)
		}
		if off != int64(i) {
			t.Fatalf("%s stream at offset %d, but the rig keeps it at %d", name, off, i)
		}
		fresh := newRand(sched.Base + off)
		got, found := gens[i].Int63(), false
		for j := 0; j < 16 && !found; j++ {
			found = fresh.Int63() == got
		}
		if !found {
			t.Errorf("%s stream: rig drew %d, not among the first draws at seed %d+%d",
				name, got, sched.Base, off)
		}
	}
	if sched.TrialStep != trialSeedStride {
		t.Errorf("trial step %d, want %d", sched.TrialStep, trialSeedStride)
	}
}
