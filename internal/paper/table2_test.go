package paper_test

import (
	"testing"

	"geneva/internal/eval"
	"geneva/internal/paper"
	"geneva/internal/strategies"
)

// paperTable2China is Table 2's China block, in percent, in protocol order
// DNS, FTP, HTTP, HTTPS, SMTP. Row 0 is "No evasion".
var paperTable2China = map[int][5]float64{
	0: {2, 3, 3, 3, 26},
	1: {89, 52, 54, 14, 70},
	2: {83, 36, 54, 55, 59},
	3: {26, 65, 4, 4, 23},
	4: {7, 33, 5, 5, 22},
	5: {15, 97, 4, 3, 25},
	6: {82, 55, 52, 54, 55},
	7: {83, 85, 54, 4, 66},
	8: {3, 47, 2, 3, 100},
}

// TestTable2ChinaMatchesPaperShape is the headline regression test: every
// cell of the China block must land within tolerance of the paper's value,
// so who-wins, by-what-factor, and the per-protocol crossovers all hold.
func TestTable2ChinaMatchesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table computation is expensive")
	}
	blocks := paper.Table2(150)
	china := blocks[0]
	if china.Country != eval.CountryChina {
		t.Fatal("first block is not China")
	}
	const tol = 13.0 // percentage points: simulation + sampling noise
	for _, row := range china.Rows {
		want, ok := paperTable2China[row.Number]
		if !ok {
			t.Fatalf("unexpected row %d", row.Number)
		}
		for i, proto := range eval.Protocols() {
			got := 100 * row.Rates[proto]
			if diff := got - want[i]; diff > tol || diff < -tol {
				t.Errorf("strategy %d / %s: got %.0f%%, paper %.0f%%",
					row.Number, proto, got, want[i])
			}
		}
	}
}

// TestTable2OtherCountriesExact checks the deterministic blocks: India,
// Iran, Kazakhstan, and the new single-engine censors (Jio, Vodafone, the
// TMC) match the paper (and the source measurement studies) exactly.
func TestTable2OtherCountriesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("table computation is expensive")
	}
	blocks := paper.Table2(25)
	for _, blk := range blocks[1:] {
		for _, row := range blk.Rows {
			for _, proto := range eval.Protocols() {
				r := row.Rates[proto]
				if r < 0 {
					continue
				}
				want := -1.0
				switch {
				case row.Number == 0:
					// No evasion: censored protocols fail ~always,
					// uncensored ones succeed always.
					if censoredIn(blk.Country, proto) {
						want = 0
					} else {
						want = 1
					}
				default:
					want = 1 // every listed strategy is 100% in the paper
				}
				if want >= 0 && r != want {
					t.Errorf("%s / strategy %d / %s: got %.2f, want %.2f",
						blk.Country, row.Number, proto, r, want)
				}
			}
		}
	}
}

// censoredIn is registry-driven: a protocol is censored in a country iff
// the censor's registry entry lists it.
func censoredIn(country, proto string) bool {
	for _, p := range eval.CensoredProtocols(country) {
		if p == proto {
			return true
		}
	}
	return false
}

// TestTable2CrossProtocolHeterogeneity pins §6's headline observation: the
// same TCP-level strategy has wildly different success rates per protocol,
// the evidence for per-protocol censorship boxes.
func TestTable2CrossProtocolHeterogeneity(t *testing.T) {
	s5 := func(proto string) float64 {
		cfg := eval.Config{
			Country: eval.CountryChina,
			Session: eval.SessionFor(eval.CountryChina, proto, true),
			Tries:   eval.TriesFor(proto),
			Seed:    77,
		}
		st, _ := strategies.ByNumber(5)
		cfg.Strategy = st.Parse()
		return eval.Rate(cfg, 120)
	}
	ftp, http := s5("ftp"), s5("http")
	if ftp < 0.8 {
		t.Errorf("Strategy 5 FTP rate %.2f, want ≈0.97", ftp)
	}
	if http > 0.2 {
		t.Errorf("Strategy 5 HTTP rate %.2f, want ≈0.04", http)
	}
	if ftp < http+0.5 {
		t.Error("cross-protocol heterogeneity collapsed: FTP should dwarf HTTP")
	}
}
