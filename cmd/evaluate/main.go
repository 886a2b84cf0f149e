// Command evaluate reproduces the paper's tables, figures, and follow-up
// experiments against the simulated censors. With no flags it runs the full
// evaluation (the content of EXPERIMENTS.md).
//
// Usage:
//
//	evaluate [-trials N] [-workers N] [-table 1|2|compat] [-figure 1|2|3]
//	         [-experiment client-side|desync|induced-rst|s7-resync|residual|
//	                      kz-triple|kz-get|kz-flags|kz-probe|ports|stateless|
//	                      carrier|deploy|dns-retries|order|ablations|robustness|all]
//	         [-loss P] [-dup P] [-reorder P] [-jitter D]
//	         [-metrics] [-manifest out.json]
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

func main() {
	trials := flag.Int("trials", 200, "trials per Table 2 cell / experiment sample size")
	workers := flag.Int("workers", 0, "GOMAXPROCS, the default worker-pool width for every experiment (0 = one per CPU); results are identical at any width")
	table := flag.String("table", "", "reproduce a table: 1, 2, or compat")
	figure := flag.String("figure", "", "reproduce a figure: 1, 2, or 3")
	experiment := flag.String("experiment", "", "run a follow-up experiment (see doc)")
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
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *metrics || *manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}
	start := time.Now()

	any := false
	if *table != "" {
		runTable(*table, *trials)
		any = true
	}
	if *figure != "" {
		runFigure(*figure, *trials)
		any = true
	}
	if *experiment != "" {
		runExperiment(*experiment, *trials)
		any = true
	}
	imp := netsim.Profile{Loss: *loss, Duplicate: *dup, Reorder: *reorder, Jitter: *jitter}
	if *loss == -1 { // unset
		imp.Loss = 0
	}
	if err := eval.CheckProfile(imp); err != nil {
		fmt.Fprintln(os.Stderr, "impairment flags:", err)
		os.Exit(2)
	}
	if *loss >= 0 || *dup > 0 || *reorder > 0 || *jitter > 0 {
		var ladder []float64
		if *loss >= 0 {
			ladder = []float64{*loss}
		}
		runRobustness(imp, ladder, *trials)
		any = true
	}
	if !any {
		runTable("1", *trials)
		runTable("2", *trials)
		runFigure("1", *trials)
		runFigure("2", *trials)
		runFigure("3", *trials)
		runTable("compat", *trials)
		runExperiment("all", *trials)
	}
	fmt.Printf("\n[workers=%d  wall=%s]\n", eval.Workers(), time.Since(start).Round(time.Millisecond))
	if *metrics {
		fmt.Printf("\n--- metrics ---\n%s", obs.Take().Format())
	}
	if *manifest != "" {
		cfg := map[string]string{
			"trials":     strconv.Itoa(*trials),
			"table":      *table,
			"figure":     *figure,
			"experiment": *experiment,
			"loss":       strconv.FormatFloat(*loss, 'g', -1, 64),
			"dup":        strconv.FormatFloat(*dup, 'g', -1, 64),
			"reorder":    strconv.FormatFloat(*reorder, 'g', -1, 64),
			"jitter":     jitter.String(),
		}
		// The harness's experiment seed bases are fixed in source; the
		// schedule records the derivation every trial applies to its base.
		m := obs.NewManifest("evaluate", cfg, eval.SeedSchedule(0))
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "writing manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
}

func header(s string) { fmt.Printf("\n=== %s ===\n\n", s) }

func runTable(which string, trials int) {
	switch which {
	case "1":
		header("Table 1: client locations and protocols")
		fmt.Print(table1())
	case "2":
		header(fmt.Sprintf("Table 2: strategy success rates (%d trials/cell)", trials))
		fmt.Print(eval.FormatTable2(eval.Table2(trials)))
		fmt.Printf("\n(95%% sampling error at %d trials: up to \u00b1%.0f points per cell)\n",
			trials, 100*eval.MaxSamplingError(trials))
	case "compat":
		header("Section 7: client compatibility matrix")
		fmt.Print(eval.FormatCompat(eval.ClientCompatibility()))
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", which)
		os.Exit(2)
	}
}

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

func table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-28s %s\n", "Country", "Vantage points (simulated)", "Protocols censored")
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
		fmt.Fprintf(&b, "%-16s %-28s %s\n", name, vantage, strings.Join(protos, ", "))
	}
	b.WriteString("(The simulator models the censor per country; vantage points are uniform.)\n")
	return b.String()
}

func runFigure(which string, trials int) {
	switch which {
	case "1":
		header("Figure 1: server-side evasion waterfalls (China)")
		fmt.Print(eval.Figure1())
	case "2":
		header("Figure 2: server-side evasion waterfalls (Kazakhstan)")
		fmt.Print(eval.Figure2())
	case "3":
		header("Figure 3: multiple censorship boxes")
		fmt.Print(eval.FormatFigure3(eval.Figure3(sample(trials, 2))))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", which)
		os.Exit(2)
	}
}

func runExperiment(which string, trials int) {
	run := func(name string) {
		switch name {
		case "client-side":
			header("§3: client-side strategies do not generalize")
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
			fmt.Printf("%d server-side analogs evaluated; best success rate: %.0f%% (baseline ~3%%)\n",
				len(rates), 100*worst)
			for _, n := range names {
				fmt.Printf("  %-44s %4.0f%%\n", n, 100*rates[n])
			}
			fmt.Printf("\nContrast — the same teardown run CLIENT-side evades at %.0f%%\n",
				100*eval.ClientSideTCBTeardownWorks(sample(trials, 4)))
		case "desync":
			header("§5.1: desynchronization confirmation (seq-1)")
			w, wo := eval.DesyncConfirmation(sample(trials, 2))
			fmt.Printf("censorship of seq-1 request WITH Strategy 1:    %.0f%% (paper: ~50%%)\n", 100*w)
			fmt.Printf("censorship of seq-1 request WITHOUT strategy:   %.0f%% (paper: never)\n", 100*wo)
		case "induced-rst":
			header("§5.1: induced-RST criticality (FTP)")
			s5n, s5d, s6n, s6d := eval.InducedRstCriticality(sample(trials, 2))
			fmt.Printf("Strategy 5: normal %.0f%%, client drops its RST %.0f%%  (RST critical)\n", 100*s5n, 100*s5d)
			fmt.Printf("Strategy 6: normal %.0f%%, client drops its RST %.0f%%  (RST vestigial)\n", 100*s6n, 100*s6d)
		case "s7-resync":
			header("§5.1: Strategy 7 re-syncs on the induced RST")
			fmt.Printf("censorship with client seq matched to the RST: %.0f%% (the GFW re-censors)\n",
				100*eval.Strategy7ResyncTarget(sample(trials, 2)))
		case "residual":
			header("§4.2: residual censorship")
			for _, r := range eval.ResidualCensorshipExperiment() {
				fmt.Printf("%-6s immediate benign follow-up blocked: %-5v recovered after 95s: %v\n",
					r.Protocol, r.ImmediateBlocked, r.AfterWindowOK)
			}
		case "kz-triple":
			header("§5.3: Kazakhstan Triple Load sweep")
			s := eval.KazakhTripleLoadSweep(10)
			fmt.Printf("1 load: %.0f%%  2 loads: %.0f%%  3 loads: %.0f%%  4 loads: %.0f%%\n",
				100*s.OneLoad, 100*s.TwoLoads, 100*s.ThreeLoads, 100*s.FourLoads)
			fmt.Printf("load,empty,load: %.0f%% (back-to-back required)\n", 100*s.TwoLoadsPlusEmptyBetween)
			fmt.Printf("1-byte payloads: %.0f%%  400-byte payloads: %.0f%% (size irrelevant)\n",
				100*s.OneByte, 100*s.Large)
		case "kz-get":
			header("§5.3: Kazakhstan Double GET sweep")
			s := eval.KazakhDoubleGetSweep(10)
			fmt.Printf("\"GET / HTTP1.\" x2: %.0f%%   without the '.': %.0f%%\n", 100*s.FullPrefix, 100*s.Truncated)
			fmt.Printf("single GET: %.0f%%   longer well-formed GET x2: %.0f%%\n", 100*s.SingleGet, 100*s.LongerPath)
		case "kz-flags":
			header("§5.3: Kazakhstan flag sweep (Null Flags)")
			rates := eval.KazakhFlagSweep(8)
			keys := make([]string, 0, len(rates))
			for k := range rates {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  flags %-7s %4.0f%%\n", k, 100*rates[k])
			}
		case "kz-probe":
			header("§5.3: Kazakhstan probing (the second request is processed)")
			two, fb := eval.KazakhProbing()
			fmt.Printf("two forbidden GETs during handshake elicit a response: %v\n", two)
			fmt.Printf("forbidden-then-benign elicits a response:             %v\n", fb)
		case "ports":
			header("§5.2: default-port sensitivity")
			printBoolMap(eval.PortSensitivity(), "non-default port defeats censorship")
		case "stateless":
			header("§5.2: state tracking")
			printBoolMap(eval.Statelessness(), "censors with no handshake at all")
		case "dns-retries":
			header("§4.2: DNS retry amplification (RFC 7766)")
			curve := eval.DNSRetryCurve(1, 5, sample(trials, 2))
			fmt.Println("Strategy 1 DNS success by client retry budget:")
			for k := 1; k <= 5; k++ {
				note := ""
				switch k {
				case 1:
					note = "(dig, single try)"
				case 3:
					note = "(Python dns lib; the paper's test setting)"
				case 5:
					note = "(Chrome: 1 + 4 retries)"
				}
				fmt.Printf("  %d tries: %3.0f%%  %s\n", k, 100*curve[k], note)
			}
		case "order":
			header("§5.1: Strategy 5 packet-order sensitivity (FTP)")
			normal, reversed := eval.OrderSensitivity(sample(trials, 2))
			fmt.Printf("corrupt-ack first, payload second: %3.0f%% (the published strategy)\n", 100*normal)
			fmt.Printf("payload first, corrupt-ack second: %3.0f%% (paper: ineffective)\n", 100*reversed)
		case "deploy":
			header("§8: one router, per-client strategies from the SYN alone")
			got := eval.RouterDeployment(sample(trials, 4))
			for _, c := range eval.Countries() {
				label := c
				if label == "" {
					label = "(uncensored)"
				}
				fmt.Printf("  %-12s routed-strategy success: %3.0f%%\n", label, 100*got[c])
			}
		case "ablations":
			header("Model ablations: every DESIGN.md mechanism is load-bearing")
			for _, a := range eval.Ablations(sample(trials, 2)) {
				kind := "censor bug"
				if !a.AidsEvasion {
					kind = "censor capability"
				}
				fmt.Printf("%-42s (S%d/%s, %s): with %3.0f%%  without %3.0f%%\n    %s\n",
					a.Name, a.Strategy, a.Protocol, kind,
					100*a.WithMechanism, 100*a.WithoutMechanism, a.Explanation)
			}
			multi, single := eval.SingleBoxAblation(sample(trials, 2))
			fmt.Println("\nSingle-box counterfactual (Strategy 5 per protocol):")
			for _, p := range eval.ChinaProtocols {
				fmt.Printf("  %-6s multi-box %3.0f%%   single shared box %3.0f%%\n",
					p, 100*multi[p], 100*single[p])
			}
			fmt.Println("\nResync-rule knockouts (success per strategy):")
			dep := eval.StrategyRuleDependence(sample(trials, 2))
			fmt.Printf("  %-10s %8s %9s %9s %9s\n", "strategy", "full", "no-rule1", "no-rule2", "no-rule3")
			for _, n := range []int{1, 2, 3, 5, 6, 7} {
				r := dep[n]
				fmt.Printf("  S%-9d %7.0f%% %8.0f%% %8.0f%% %8.0f%%\n",
					n, 100*r["full"], 100*r["no-rule1"], 100*r["no-rule2"], 100*r["no-rule3"])
			}
		case "differential":
			header("Cross-censor differential failure-cause matrix")
			fmt.Print(eval.FormatDifferential(eval.Differential()))
			fmt.Println("\n(one traced trial per cell; causes classified from packet evidence —")
			fmt.Println(" the golden copy lives in internal/eval/testdata/differential.txt)")
		case "robustness":
			runRobustness(netsim.Profile{}, nil, trials)
		case "carrier":
			header("§7: cellular-middlebox interference (anecdote)")
			got := eval.CarrierInterference()
			for _, carrier := range []string{"wifi", "tmobile", "att"} {
				var broken []int
				for n := 1; n <= 11; n++ {
					if !got[carrier][n] {
						broken = append(broken, n)
					}
				}
				if len(broken) == 0 {
					fmt.Printf("  %-8s all strategies work\n", carrier)
				} else {
					fmt.Printf("  %-8s broken strategies: %v\n", carrier, broken)
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if which == "all" {
		for _, n := range []string{
			"client-side", "desync", "induced-rst", "s7-resync", "residual",
			"kz-triple", "kz-get", "kz-flags", "kz-probe", "ports", "stateless",
			"carrier", "ablations", "differential", "deploy", "dns-retries", "order",
		} {
			run(n)
		}
		return
	}
	run(which)
}

// runRobustness sweeps evasion rate vs. loss rate for every strategy against
// every censor. base carries the non-loss impairments; ladder is the loss
// rates to climb (nil = eval.DefaultLossRates).
func runRobustness(base netsim.Profile, ladder []float64, trials int) {
	per := sample(trials, 2)
	extra := ""
	if base.Duplicate > 0 || base.Reorder > 0 || base.Jitter > 0 {
		extra = fmt.Sprintf(" (dup %.0f%%, reorder %.0f%%, jitter %v)",
			100*base.Duplicate, 100*base.Reorder, base.Jitter)
	}
	header(fmt.Sprintf("Robustness: evasion rate vs. packet loss%s (%d trials/cell)", extra, per))
	fmt.Print(eval.FormatRobustness(eval.Robustness(base, ladder, per)))
}

// sample is an experiment's derived sample size, trials/div floored at 1 so
// a small -trials never runs an empty sample.
func sample(trials, div int) int { return max(trials/div, 1) }

// printBoolMap prints a country->bool map in key order.
func printBoolMap(m map[string]bool, label string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-12s %s: %v\n", k, label, m[k])
	}
}
