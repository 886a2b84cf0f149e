package eval_test

import (
	"strings"
	"testing"

	"geneva/internal/eval"
	"geneva/internal/paper"
)

func TestClientSideAnalogsAllFail(t *testing.T) {
	if testing.Short() {
		t.Skip("many strategies x trials")
	}
	rates := paper.ClientSideGeneralization(30)
	if len(rates) != 50 {
		t.Fatalf("analog corpus has %d strategies, want 50 (25 shapes x before/after)", len(rates))
	}
	for name, r := range rates {
		if r > 0.25 {
			t.Errorf("%s: success rate %.2f — §3 says server-side analogs do not work", name, r)
		}
	}
}

func TestClientSideTeardownWorksFromClient(t *testing.T) {
	if rate := paper.ClientSideTCBTeardownWorks(30); rate < 0.9 {
		t.Errorf("client-side TTL-limited RST teardown rate %.2f, should evade", rate)
	}
}

func TestDesyncConfirmation(t *testing.T) {
	withS1, without := paper.DesyncConfirmation(80)
	if withS1 < 0.3 || withS1 > 0.75 {
		t.Errorf("seq-1 censorship with Strategy 1 = %.2f, paper: ~50%%", withS1)
	}
	if without != 0 {
		t.Errorf("seq-1 censorship without strategy = %.2f, paper: never", without)
	}
}

func TestInducedRstCriticality(t *testing.T) {
	s5n, s5d, s6n, s6d := paper.InducedRstCriticality(60)
	if s5n < 0.85 {
		t.Errorf("Strategy 5 FTP normal = %.2f, want ~0.97", s5n)
	}
	if s5d > s5n-0.4 {
		t.Errorf("Strategy 5 with dropped RST = %.2f (normal %.2f): dropping the RST must break it", s5d, s5n)
	}
	if s6n < 0.3 {
		t.Errorf("Strategy 6 HTTP normal = %.2f, want ~0.55", s6n)
	}
	// Strategy 6 must be insensitive to the induced RST.
	if s6d+0.15 < s6n {
		t.Errorf("Strategy 6 dropped = %.2f vs normal %.2f: should be unaffected", s6d, s6n)
	}
}

func TestStrategy7ResyncTarget(t *testing.T) {
	rate := paper.Strategy7ResyncTarget(60)
	if rate < 0.3 {
		t.Errorf("seq-matched-to-RST censorship under Strategy 7 = %.2f; the GFW should re-censor", rate)
	}
}

func TestResidualCensorshipOnlyHTTP(t *testing.T) {
	for _, r := range paper.ResidualCensorshipExperiment() {
		switch r.Protocol {
		case "http":
			if !r.ImmediateBlocked {
				t.Error("http: immediate benign follow-up was not blocked (residual censorship missing)")
			}
			if !r.AfterWindowOK {
				t.Error("http: follow-up after 95s still blocked")
			}
		default:
			if r.ImmediateBlocked {
				t.Errorf("%s: immediate follow-up blocked; the paper found no residual censorship", r.Protocol)
			}
		}
	}
}

func TestPortSensitivity(t *testing.T) {
	got := paper.PortSensitivity()
	if got[eval.CountryChina] {
		t.Error("china: non-default port defeated the GFW; it censors all ports")
	}
	for _, c := range eval.CensoredCountries() {
		if c == eval.CountryChina {
			continue
		}
		if !got[c] {
			t.Errorf("%s: non-default port did not defeat censorship; every modeled censor except the GFW is port-bound", c)
		}
	}
}

func TestStatelessness(t *testing.T) {
	got := paper.Statelessness()
	if got[eval.CountryChina] {
		t.Error("china: the GFW censored without a TCB")
	}
	for _, c := range []string{eval.CountryIndia, eval.CountryIndiaJio, eval.CountryIndiaVodafone,
		eval.CountryIran, eval.CountryTurkmenistan} {
		if !got[c] {
			t.Errorf("%s: stateless middlebox should censor a request with no handshake", c)
		}
	}
}

func TestLocalizationSameHopAllProtocols(t *testing.T) {
	hops := make(map[string]int)
	for _, proto := range eval.CensoredProtocols(eval.CountryChina) {
		off, _ := eval.ProtocolFacts(proto)
		hops[proto] = paper.LocalizeCensor(proto, 60+off)
	}
	for proto, h := range hops {
		if h != 5 {
			t.Errorf("%s: censor localized at hop %d, want 5 (colocated boxes)", proto, h)
		}
	}
}

func TestFigure1WaterfallsRender(t *testing.T) {
	out := paper.Figure1()
	for _, want := range []string{"Normal behavior", "Strategy 1", "Strategy 8", "SYN/ACK", "evaded censorship"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 output missing %q", want)
		}
	}
}

func TestFigure2WaterfallsRender(t *testing.T) {
	out := paper.Figure2()
	for _, want := range []string{"Strategy 9", "Strategy 10", "Strategy 11", "no flags"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 output missing %q", want)
		}
	}
}

func TestFigure3Evidence(t *testing.T) {
	r := paper.Figure3(40)
	if r.StrategyRates["ftp"] < 0.8 || r.StrategyRates["http"] > 0.2 {
		t.Errorf("figure 3a heterogeneity wrong: ftp=%.2f http=%.2f",
			r.StrategyRates["ftp"], r.StrategyRates["http"])
	}
	for proto, hop := range r.CensorHops {
		if hop != 5 {
			t.Errorf("figure 3b: %s censored at hop %d, want 5", proto, hop)
		}
	}
	if out := paper.FormatFigure3(r); !strings.Contains(out, "colocated") {
		t.Error("FormatFigure3 output malformed")
	}
}
