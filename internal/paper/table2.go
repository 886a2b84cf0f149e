package paper

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/strategies"
)

// --- Table 1 (E1) ---

// table1Vantage is presentation flavor only (the simulator's vantage points
// are uniform); the row set itself comes from the censor registry, so a
// newly registered censor appears here with a "(simulated)" placeholder
// until someone names its vantage.
var table1Vantage = map[string]string{
	eval.CountryChina:         "Beijing, Shanghai, ...",
	eval.CountryIndia:         "Bangalore (Airtel)",
	eval.CountryIndiaJio:      "Mumbai (Jio)",
	eval.CountryIndiaVodafone: "Delhi (Vodafone)",
	eval.CountryIran:          "Tehran, Zanjan",
	eval.CountryKazakhstan:    "Qaraghandy, Almaty",
	eval.CountryTurkmenistan:  "Ashgabat (TMC)",
}

func printTable1(w io.Writer, _ int) {
	header(w, "Table 1: client locations and protocols")
	fmt.Fprintf(w, "%-16s %-28s %s\n", "Country", "Vantage points (simulated)", "Protocols censored")
	for _, d := range eval.Registry() {
		vantage, ok := table1Vantage[d.Country]
		if !ok {
			vantage = "(simulated)"
		}
		protos := make([]string, len(d.Protocols))
		for i, p := range d.Protocols {
			protos[i] = strings.ToUpper(p)
		}
		name := strings.ToUpper(d.Country[:1]) + d.Country[1:]
		fmt.Fprintf(w, "%-16s %-28s %s\n", name, vantage, strings.Join(protos, ", "))
	}
	fmt.Fprintln(w, "(The simulator models the censor per country; vantage points are uniform.)")
}

// --- Table 2 (E2) ---

// Table2Row is one row of Table 2: a strategy (or "No evasion") with its
// success rate per protocol. Rates are in [0,1]; -1 marks cells the paper
// leaves blank ("–").
type Table2Row struct {
	Number int
	Name   string
	Rates  map[string]float64
}

// Table2Block is one country's block of Table 2; its columns are the
// protocol table's rows.
type Table2Block struct {
	Country string
	Rows    []Table2Row
}

// Table2 computes the paper's headline table with the given number of
// trials per cell, one block per registered censor: the no-evasion
// baseline on every protocol, then each of the censor's Table2 strategies
// on the protocols it censors ("–" elsewhere). Cell seeds are 1000 ×
// strategy number + the protocol's seed offset (they key off strategy
// numbers and protocols, never off registry position), so two runs agree
// exactly. A differential-matrix cell uses the same seed, so it is trial 0
// of the matching Table 2 cell.
func Table2(trials int) []Table2Block {
	var blocks []Table2Block
	for _, d := range eval.Registry() {
		b := Table2Block{Country: d.Country}
		for _, s := range append([]strategies.Strategy{{Name: "No evasion"}}, d.Table2...) {
			row := Table2Row{Number: s.Number, Name: s.Name, Rates: map[string]float64{}}
			var strategy *core.Strategy
			if s.Number > 0 {
				strategy = s.Parse()
			}
			for _, p := range eval.Protocols() {
				if s.Number > 0 && !slices.Contains(d.Protocols, p) {
					row.Rates[p] = -1 // the paper's "–"
					continue
				}
				off, _ := eval.ProtocolFacts(p)
				row.Rates[p] = eval.Rate(eval.Trial(d.Country, p, strategy, int64(1000*s.Number)+off), trials)
			}
			b.Rows = append(b.Rows, row)
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// FormatTable2 renders the blocks in the paper's layout.
func FormatTable2(blocks []Table2Block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-38s", "#", "Description")
	for _, p := range eval.Protocols() {
		fmt.Fprintf(&b, " %6s", strings.ToUpper(p))
	}
	b.WriteByte('\n')
	for _, blk := range blocks {
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
		fmt.Fprintf(&b, "%s\n", strings.ToUpper(blk.Country[:1])+blk.Country[1:])
		for _, row := range blk.Rows {
			num := "–"
			if row.Number > 0 {
				num = fmt.Sprintf("%d", row.Number)
			}
			fmt.Fprintf(&b, "%-4s %-38s", num, row.Name)
			for _, p := range eval.Protocols() {
				r, ok := row.Rates[p]
				switch {
				case !ok || r < 0:
					fmt.Fprintf(&b, " %6s", "–")
				default:
					fmt.Fprintf(&b, " %5.0f%%", 100*r)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func printTable2(w io.Writer, trials int) {
	header(w, fmt.Sprintf("Table 2: strategy success rates (%d trials/cell)", trials))
	fmt.Fprint(w, FormatTable2(Table2(trials)))
	fmt.Fprintf(w, "\n(95%% sampling error at %d trials: up to ±%.0f points per cell)\n",
		trials, 100*eval.MaxSamplingError(trials))
}

// --- §4.2 residual censorship (E10) ---

// ResidualResult is one protocol's outcome in the residual-censorship
// experiment: whether a benign follow-up connection right after a
// censorship event is torn down, and whether it recovers after the window
// passes. The paper: HTTP has ~90 s of residual censorship; DNS, FTP,
// HTTPS, and SMTP have none.
type ResidualResult struct {
	Protocol         string
	ImmediateBlocked bool
	AfterWindowOK    bool
}

// ResidualCensorshipExperiment runs E10 for every protocol.
func ResidualCensorshipExperiment() []ResidualResult {
	var out []ResidualResult
	for _, proto := range eval.CensoredProtocols(eval.CountryChina) {
		// A rig whose censor state persists across connections.
		off, _ := eval.ProtocolFacts(proto)
		rig := eval.NewRig(eval.Trial(eval.CountryChina, proto, nil, 9000+off))
		// Trip the censor (retry until it fires; the baseline miss rate
		// makes a single shot flaky).
		for i := 0; i < 10 && rig.CensorEvents() == 0; i++ {
			rig.Attempt()
		}
		if rig.CensorEvents() == 0 {
			out = append(out, ResidualResult{Protocol: proto})
			continue
		}
		// Immediately retry with *benign* content on the same server; the
		// rig serves whatever its Session is.
		rig.Session = eval.SessionFor(eval.CountryChina, proto, false)
		app := rig.Attempt()
		immediateBlocked := !app.Succeeded()
		// Wait out the residual window and retry.
		rig.Net.Clock.Advance(95 * time.Second)
		app2 := rig.Attempt()
		out = append(out, ResidualResult{
			Protocol:         proto,
			ImmediateBlocked: immediateBlocked,
			AfterWindowOK:    app2.Succeeded(),
		})
	}
	return out
}

func printResidual(w io.Writer, _ int) {
	header(w, "§4.2: residual censorship")
	for _, r := range ResidualCensorshipExperiment() {
		fmt.Fprintf(w, "%-6s immediate benign follow-up blocked: %-5v recovered after 95s: %v\n",
			r.Protocol, r.ImmediateBlocked, r.AfterWindowOK)
	}
}

// --- §4.2 DNS retry amplification (E20) ---

// DNSRetryCurve reproduces §4.2's DNS-retry analysis: RFC 7766 clients
// retry queries whose connections close prematurely, and different software
// retries different numbers of times (dig once, Python three times, Chrome
// four). For a strategy with per-try success p, k tries succeed at
// 1-(1-p)^k — the amplification that turns Strategy 1's ~52% per-try rate
// into Table 2's 89% DNS cell. The returned slice maps tries (1-based
// index) to the measured rate.
func DNSRetryCurve(strategyNum, maxTries, trials int) []float64 {
	s, _ := byNumber(strategyNum)
	out := make([]float64, maxTries+1)
	for tries := 1; tries <= maxTries; tries++ {
		cfg := eval.Trial(eval.CountryChina, "dns", s, int64(5000*tries))
		cfg.Tries = tries
		out[tries] = eval.Rate(cfg, trials)
	}
	return out
}

// dnsRetryNotes names the real clients behind three of the retry budgets.
var dnsRetryNotes = map[int]string{
	1: "(dig, single try)",
	3: "(Python dns lib; the paper's test setting)",
	5: "(Chrome: 1 + 4 retries)",
}

func printDNSRetries(w io.Writer, trials int) {
	header(w, "§4.2: DNS retry amplification (RFC 7766)")
	curve := DNSRetryCurve(1, 5, sample(trials, 2))
	fmt.Fprintln(w, "Strategy 1 DNS success by client retry budget:")
	for k := 1; k <= 5; k++ {
		fmt.Fprintf(w, "  %d tries: %3.0f%%  %s\n", k, 100*curve[k], dnsRetryNotes[k])
	}
}
