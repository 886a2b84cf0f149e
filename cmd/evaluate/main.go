// Command evaluate reproduces the paper's tables, figures, and follow-up
// experiments against the simulated censors. With no flags it prints the
// full report (the content of EXPERIMENTS.md; at 300 trials it is
// docs/RESULTS.txt).
//
// Usage:
//
//	evaluate [-trials N] [-workers N] [-experiment NAME]
//	         [-loss P] [-dup P] [-reorder P] [-jitter D]
//	         [-metrics] [-manifest out.json]
//
// Every table, figure and experiment is one entry of the experiments
// list, and the report prints the entries in its order. -experiment NAME
// prints one entry alone; `evaluate -h` lists the names.
//
// -workers sets GOMAXPROCS, and with it the default width of every worker
// pool (0 = leave it at one per CPU). Every number printed is identical at
// any width; the closing stats line reports the width used and the
// wall-clock time.
//
// -metrics enables the cross-layer counters (internal/obs) and prints the
// nonzero ones after the run; -manifest additionally writes the structured
// run manifest — config, seed schedule, and every counter, zeroes included —
// as diffable JSON. The manifest omits -workers, which cannot change a
// printed number. Counters observe and never steer, so every printed
// number is identical with and without them.
//
// The impairment flags run the robustness sweep (evasion rate vs. loss rate
// for every strategy against every censor) on a degraded network path:
// -loss 0.02 sweeps all strategies at 2% packet loss; -experiment robustness
// climbs the default loss ladder instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/obs"
)

// An experiment is one block of the report: a table, a figure or a
// follow-up. run prints the whole block, header included.
type experiment struct {
	name string
	run  func(w io.Writer, trials int)
	// byNameOnly leaves the entry out of the default report.
	byNameOnly bool
}

// experiments is every entry -experiment can name. The report prints them
// in this order, skipping the byNameOnly ones.
var experiments = []experiment{
	{name: "table1", run: table1},
	{name: "table2", run: table2},
	{name: "figure1", run: figure1},
	{name: "figure2", run: figure2},
	{name: "figure3", run: figure3},
	{name: "compat", run: compat},
	{name: "client-side", run: clientSide},
	{name: "desync", run: desync},
	{name: "induced-rst", run: inducedRst},
	{name: "s7-resync", run: s7Resync},
	{name: "residual", run: residual},
	{name: "kz-triple", run: kzTriple},
	{name: "kz-get", run: kzGet},
	{name: "kz-flags", run: kzFlags},
	{name: "kz-probe", run: kzProbe},
	{name: "ports", run: ports},
	{name: "stateless", run: stateless},
	{name: "carrier", run: carrier},
	{name: "ablations", run: ablations},
	{name: "differential", run: differential},
	{name: "deploy", run: deploy},
	{name: "dns-retries", run: dnsRetries},
	{name: "order", run: order},
	{name: "robustness", run: robustness, byNameOnly: true},
}

func main() {
	trials := flag.Int("trials", 200, "trials per Table 2 cell / experiment sample size")
	workers := flag.Int("workers", 0, "GOMAXPROCS, the default worker-pool width for every experiment (0 = one per CPU); results are identical at any width")
	name := flag.String("experiment", "", "print one entry instead of the whole report: "+strings.Join(names(), ", "))
	loss := flag.Float64("loss", -1, "robustness sweep at this packet loss rate (e.g. 0.02)")
	dup := flag.Float64("dup", 0, "robustness sweep: per-packet duplication probability")
	reorder := flag.Float64("reorder", 0, "robustness sweep: per-packet reordering probability")
	jitter := flag.Duration("jitter", 0, "robustness sweep: max random extra delivery delay (e.g. 3ms)")
	metrics := flag.Bool("metrics", false, "enable cross-layer counters and print the nonzero ones after the run")
	manifest := flag.String("manifest", "", "write a structured run manifest (JSON) to this file; implies -metrics")
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "-trials must be at least 1, got %d\n", *trials)
		os.Exit(2)
	}
	imp := netsim.Profile{Loss: *loss, Duplicate: *dup, Reorder: *reorder, Jitter: *jitter}
	if *loss == -1 { // unset
		imp.Loss = 0
	}
	if err := eval.CheckProfile(imp); err != nil {
		fmt.Fprintln(os.Stderr, "impairment flags:", err)
		os.Exit(2)
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *metrics || *manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}
	start := time.Now()

	w := os.Stdout
	impaired := *loss >= 0 || *dup > 0 || *reorder > 0 || *jitter > 0
	if *name != "" {
		if err := run(w, *name, *trials); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else if !impaired {
		report(w, *trials)
	}
	if impaired {
		var ladder []float64
		if *loss >= 0 {
			ladder = []float64{*loss}
		}
		runRobustness(w, imp, ladder, *trials)
	}
	fmt.Printf("\n[workers=%d  wall=%s]\n", eval.Workers(), time.Since(start).Round(time.Millisecond))
	if *metrics {
		fmt.Printf("\n--- metrics ---\n%s", obs.Take().Format())
	}
	if *manifest != "" {
		cfg := map[string]string{
			"trials":     strconv.Itoa(*trials),
			"experiment": *name,
			"loss":       strconv.FormatFloat(*loss, 'g', -1, 64),
			"dup":        strconv.FormatFloat(*dup, 'g', -1, 64),
			"reorder":    strconv.FormatFloat(*reorder, 'g', -1, 64),
			"jitter":     jitter.String(),
		}
		// The harness's experiment seed bases are fixed in source. Every
		// sampled experiment runs its trials through eval.RateStats, so
		// the schedule records the derivation each trial applies to its
		// experiment's base.
		m := obs.NewManifest("evaluate", cfg, eval.SeedSchedule(0))
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "writing manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
}

// report prints every entry not marked byNameOnly, in list order; at 300
// trials it is docs/RESULTS.txt.
func report(w io.Writer, trials int) {
	for _, e := range experiments {
		if !e.byNameOnly {
			e.run(w, trials)
		}
	}
}

// run prints the named entry. An unknown name is an error, reported before
// anything is printed, that lists every entry.
func run(w io.Writer, name string, trials int) error {
	for _, e := range experiments {
		if e.name == name {
			e.run(w, trials)
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q; want one of: %s", name, strings.Join(names(), ", "))
}

// names lists the entries in report order.
func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

func header(w io.Writer, s string) { fmt.Fprintf(w, "\n=== %s ===\n\n", s) }

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

func table1(w io.Writer, _ int) {
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

func table2(w io.Writer, trials int) {
	header(w, fmt.Sprintf("Table 2: strategy success rates (%d trials/cell)", trials))
	fmt.Fprint(w, eval.FormatTable2(eval.Table2(trials)))
	fmt.Fprintf(w, "\n(95%% sampling error at %d trials: up to ±%.0f points per cell)\n",
		trials, 100*eval.MaxSamplingError(trials))
}

func figure1(w io.Writer, _ int) {
	header(w, "Figure 1: server-side evasion waterfalls (China)")
	fmt.Fprint(w, eval.Figure1())
}

func figure2(w io.Writer, _ int) {
	header(w, "Figure 2: server-side evasion waterfalls (Kazakhstan)")
	fmt.Fprint(w, eval.Figure2())
}

func figure3(w io.Writer, trials int) {
	header(w, "Figure 3: multiple censorship boxes")
	fmt.Fprint(w, eval.FormatFigure3(eval.Figure3(sample(trials, 2))))
}

func compat(w io.Writer, _ int) {
	header(w, "Section 7: client compatibility matrix")
	fmt.Fprint(w, eval.FormatCompat(eval.ClientCompatibility()))
}

func clientSide(w io.Writer, trials int) {
	header(w, "§3: client-side strategies do not generalize")
	rates := eval.ClientSideGeneralization(sample(trials, 4))
	names := make([]string, 0, len(rates))
	for n := range rates {
		names = append(names, n)
	}
	sort.Strings(names)
	worst := 0.0
	for _, n := range names {
		if rates[n] > worst {
			worst = rates[n]
		}
	}
	fmt.Fprintf(w, "%d server-side analogs evaluated; best success rate: %.0f%% (baseline ~3%%)\n",
		len(rates), 100*worst)
	col := width(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-*s %4.0f%%\n", col, n, 100*rates[n])
	}
	fmt.Fprintf(w, "\nContrast — the same teardown run CLIENT-side evades at %.0f%%\n",
		100*eval.ClientSideTCBTeardownWorks(sample(trials, 4)))
}

func desync(w io.Writer, trials int) {
	header(w, "§5.1: desynchronization confirmation (seq-1)")
	with, without := eval.DesyncConfirmation(sample(trials, 2))
	fmt.Fprintf(w, "censorship of seq-1 request WITH Strategy 1:    %.0f%% (paper: ~50%%)\n", 100*with)
	fmt.Fprintf(w, "censorship of seq-1 request WITHOUT strategy:   %.0f%% (paper: never)\n", 100*without)
}

func inducedRst(w io.Writer, trials int) {
	header(w, "§5.1: induced-RST criticality (FTP)")
	s5n, s5d, s6n, s6d := eval.InducedRstCriticality(sample(trials, 2))
	fmt.Fprintf(w, "Strategy 5: normal %.0f%%, client drops its RST %.0f%%  (RST critical)\n", 100*s5n, 100*s5d)
	fmt.Fprintf(w, "Strategy 6: normal %.0f%%, client drops its RST %.0f%%  (RST vestigial)\n", 100*s6n, 100*s6d)
}

func s7Resync(w io.Writer, trials int) {
	header(w, "§5.1: Strategy 7 re-syncs on the induced RST")
	fmt.Fprintf(w, "censorship with client seq matched to the RST: %.0f%% (the GFW re-censors)\n",
		100*eval.Strategy7ResyncTarget(sample(trials, 2)))
}

func residual(w io.Writer, _ int) {
	header(w, "§4.2: residual censorship")
	for _, r := range eval.ResidualCensorshipExperiment() {
		fmt.Fprintf(w, "%-6s immediate benign follow-up blocked: %-5v recovered after 95s: %v\n",
			r.Protocol, r.ImmediateBlocked, r.AfterWindowOK)
	}
}

func kzTriple(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan Triple Load sweep")
	s := eval.KazakhTripleLoadSweep(10)
	fmt.Fprintf(w, "1 load: %.0f%%  2 loads: %.0f%%  3 loads: %.0f%%  4 loads: %.0f%%\n",
		100*s.OneLoad, 100*s.TwoLoads, 100*s.ThreeLoads, 100*s.FourLoads)
	fmt.Fprintf(w, "load,empty,load: %.0f%% (back-to-back required)\n", 100*s.TwoLoadsPlusEmptyBetween)
	fmt.Fprintf(w, "1-byte payloads: %.0f%%  400-byte payloads: %.0f%% (size irrelevant)\n",
		100*s.OneByte, 100*s.Large)
}

func kzGet(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan Double GET sweep")
	s := eval.KazakhDoubleGetSweep(10)
	fmt.Fprintf(w, "\"GET / HTTP1.\" x2: %.0f%%   without the '.': %.0f%%\n", 100*s.FullPrefix, 100*s.Truncated)
	fmt.Fprintf(w, "single GET: %.0f%%   longer well-formed GET x2: %.0f%%\n", 100*s.SingleGet, 100*s.LongerPath)
}

func kzFlags(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan flag sweep (Null Flags)")
	rates := eval.KazakhFlagSweep(8)
	keys := make([]string, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  flags %-7s %4.0f%%\n", k, 100*rates[k])
	}
}

func kzProbe(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan probing (the second request is processed)")
	two, fb := eval.KazakhProbing()
	fmt.Fprintf(w, "two forbidden GETs during handshake elicit a response: %v\n", two)
	fmt.Fprintf(w, "forbidden-then-benign elicits a response:             %v\n", fb)
}

func ports(w io.Writer, _ int) {
	header(w, "§5.2: default-port sensitivity")
	printBoolMap(w, eval.PortSensitivity(), "non-default port defeats censorship")
}

func stateless(w io.Writer, _ int) {
	header(w, "§5.2: state tracking")
	printBoolMap(w, eval.Statelessness(), "censors with no handshake at all")
}

func carrier(w io.Writer, _ int) {
	header(w, "§7: cellular-middlebox interference (anecdote)")
	got := eval.CarrierInterference()
	for _, c := range []string{"wifi", "tmobile", "att"} {
		var broken []int
		for n := 1; n <= 11; n++ {
			if !got[c][n] {
				broken = append(broken, n)
			}
		}
		if len(broken) == 0 {
			fmt.Fprintf(w, "  %-8s all strategies work\n", c)
		} else {
			fmt.Fprintf(w, "  %-8s broken strategies: %v\n", c, broken)
		}
	}
}

func ablations(w io.Writer, trials int) {
	header(w, "Model ablations: every DESIGN.md mechanism is load-bearing")
	for _, a := range eval.Ablations(sample(trials, 2)) {
		kind := "censor bug"
		if !a.AidsEvasion {
			kind = "censor capability"
		}
		fmt.Fprintf(w, "%-42s (S%d/%s, %s): with %3.0f%%  without %3.0f%%\n    %s\n",
			a.Name, a.Strategy, a.Protocol, kind,
			100*a.WithMechanism, 100*a.WithoutMechanism, a.Explanation)
	}
	multi, single := eval.SingleBoxAblation(sample(trials, 2))
	fmt.Fprintln(w, "\nSingle-box counterfactual (Strategy 5 per protocol):")
	for _, p := range eval.CensoredProtocols(eval.CountryChina) {
		fmt.Fprintf(w, "  %-6s multi-box %3.0f%%   single shared box %3.0f%%\n",
			p, 100*multi[p], 100*single[p])
	}
	fmt.Fprintln(w, "\nResync-rule knockouts (success per strategy):")
	dep := eval.StrategyRuleDependence(sample(trials, 2))
	fmt.Fprintf(w, "  %-10s %8s %9s %9s %9s\n", "strategy", "full", "no-rule1", "no-rule2", "no-rule3")
	for _, n := range []int{1, 2, 3, 5, 6, 7} {
		r := dep[n]
		fmt.Fprintf(w, "  S%-9d %7.0f%% %8.0f%% %8.0f%% %8.0f%%\n",
			n, 100*r["full"], 100*r["no-rule1"], 100*r["no-rule2"], 100*r["no-rule3"])
	}
}

func differential(w io.Writer, _ int) {
	header(w, "Cross-censor differential failure-cause matrix")
	fmt.Fprint(w, eval.FormatDifferential(eval.Differential()))
	fmt.Fprintln(w, "\n(one traced trial per cell; causes classified from packet evidence —")
	fmt.Fprintln(w, " the golden copy lives in internal/eval/testdata/differential.txt)")
}

func deploy(w io.Writer, trials int) {
	header(w, "§8: one router, per-client strategies from the SYN alone")
	got := eval.RouterDeployment(sample(trials, 4))
	const uncensored = "(uncensored)"
	col := max(width(eval.Countries()), len(uncensored))
	for _, c := range eval.Countries() {
		label := c
		if label == "" {
			label = uncensored
		}
		fmt.Fprintf(w, "  %-*s routed-strategy success: %3.0f%%\n", col, label, 100*got[c])
	}
}

// dnsRetryNotes names the real clients behind three of the retry budgets.
var dnsRetryNotes = map[int]string{
	1: "(dig, single try)",
	3: "(Python dns lib; the paper's test setting)",
	5: "(Chrome: 1 + 4 retries)",
}

func dnsRetries(w io.Writer, trials int) {
	header(w, "§4.2: DNS retry amplification (RFC 7766)")
	curve := eval.DNSRetryCurve(1, 5, sample(trials, 2))
	fmt.Fprintln(w, "Strategy 1 DNS success by client retry budget:")
	for k := 1; k <= 5; k++ {
		fmt.Fprintf(w, "  %d tries: %3.0f%%  %s\n", k, 100*curve[k], dnsRetryNotes[k])
	}
}

func order(w io.Writer, trials int) {
	header(w, "§5.1: Strategy 5 packet-order sensitivity (FTP)")
	normal, reversed := eval.OrderSensitivity(sample(trials, 2))
	fmt.Fprintf(w, "corrupt-ack first, payload second: %3.0f%% (the published strategy)\n", 100*normal)
	fmt.Fprintf(w, "payload first, corrupt-ack second: %3.0f%% (paper: ineffective)\n", 100*reversed)
}

// robustness climbs the default loss ladder on an otherwise clean path.
func robustness(w io.Writer, trials int) {
	runRobustness(w, netsim.Profile{}, nil, trials)
}

// runRobustness sweeps evasion rate vs. loss rate for every strategy against
// every censor. base carries the non-loss impairments; ladder is the loss
// rates to climb (nil = eval.DefaultLossRates).
func runRobustness(w io.Writer, base netsim.Profile, ladder []float64, trials int) {
	per := sample(trials, 2)
	extra := ""
	if base.Duplicate > 0 || base.Reorder > 0 || base.Jitter > 0 {
		extra = fmt.Sprintf(" (dup %.0f%%, reorder %.0f%%, jitter %v)",
			100*base.Duplicate, 100*base.Reorder, base.Jitter)
	}
	header(w, fmt.Sprintf("Robustness: evasion rate vs. packet loss%s (%d trials/cell)", extra, per))
	fmt.Fprint(w, eval.FormatRobustness(eval.Robustness(base, ladder, per)))
}

// sample is an experiment's derived sample size, trials/div floored at 1 so
// a small -trials never runs an empty sample.
func sample(trials, div int) int { return max(trials/div, 1) }

// printBoolMap prints a country->bool map in key order.
func printBoolMap(w io.Writer, m map[string]bool, label string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	col := width(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-*s %s: %v\n", col, k, label, m[k])
	}
}

// width is the length of the longest name, the width of a column of them.
func width(names []string) int {
	n := 0
	for _, s := range names {
		n = max(n, len(s))
	}
	return n
}
