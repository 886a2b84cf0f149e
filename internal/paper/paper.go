// Package paper holds the paper's evaluation: each table, figure and
// follow-up experiment, measured on the trial engine in internal/eval, with
// the report block that prints it and its entry in the report. One file
// per paper section:
//
//	table2.go        §4.2: Tables 1 and 2, residual censorship, DNS retries
//	waterfalls.go    §5: Figures 1 and 2
//	clientside.go    §3: client-side strategies do not generalize
//	china.go         §5.1: the GFW follow-ups
//	indiairan.go     §5.2: port sensitivity and statelessness
//	kazakhstan.go    §5.3: the Kazakhstan sweeps and probing
//	multibox.go      §6: Figure 3, multiple censorship boxes
//	compat.go        §7: client compatibility and carrier interference
//	deploy.go        §8: one router, per-client strategies
//	ablations.go     the model ablations
//	differential.go  the cross-censor differential matrix
//	robustness.go    the robustness sweep under packet loss
//
// The report is the experiments list, printed in order; at 300 trials it
// is docs/RESULTS.txt.
package paper

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/strategies"
)

// An experiment is one block of the report: a table, a figure or a
// follow-up. run prints the whole block, header included.
type experiment struct {
	name string
	run  func(w io.Writer, trials int)
	// byNameOnly leaves the entry out of the default report.
	byNameOnly bool
}

// experiments is every entry Run can name. The report prints them in this
// order, skipping the byNameOnly ones.
var experiments = []experiment{
	{name: "table1", run: printTable1},
	{name: "table2", run: printTable2},
	{name: "figure1", run: printFigure1},
	{name: "figure2", run: printFigure2},
	{name: "figure3", run: printFigure3},
	{name: "compat", run: printCompat},
	{name: "client-side", run: printClientSide},
	{name: "desync", run: printDesync},
	{name: "induced-rst", run: printInducedRst},
	{name: "s7-resync", run: printS7Resync},
	{name: "residual", run: printResidual},
	{name: "kz-triple", run: printKzTriple},
	{name: "kz-get", run: printKzGet},
	{name: "kz-flags", run: printKzFlags},
	{name: "kz-probe", run: printKzProbe},
	{name: "ports", run: printPorts},
	{name: "stateless", run: printStateless},
	{name: "carrier", run: printCarrier},
	{name: "ablations", run: printAblations},
	{name: "differential", run: printDifferential},
	{name: "deploy", run: printDeploy},
	{name: "dns-retries", run: printDNSRetries},
	{name: "order", run: printOrder},
	{name: "robustness", byNameOnly: true, run: func(w io.Writer, trials int) {
		PrintRobustness(w, netsim.Profile{}, nil, trials)
	}},
}

// Report prints every entry not marked byNameOnly, in list order; at 300
// trials it is docs/RESULTS.txt.
func Report(w io.Writer, trials int) {
	for _, e := range experiments {
		if !e.byNameOnly {
			e.run(w, trials)
		}
	}
}

// Run prints the named entry. An unknown name is an error, reported before
// anything is printed, that lists every entry.
func Run(w io.Writer, name string, trials int) error {
	for _, e := range experiments {
		if e.name == name {
			e.run(w, trials)
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q; want one of: %s", name, strings.Join(Names(), ", "))
}

// Names lists the entries in report order.
func Names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// byNumber compiles a paper strategy by number.
func byNumber(n int) (*core.Strategy, bool) {
	s, ok := strategies.ByNumber(n)
	if !ok {
		return nil, false
	}
	return s.Parse(), true
}

// sweepProtocol returns the protocol single-protocol experiments (the
// robustness sweep, the §8 router) exercise against a country's censor:
// HTTP where it is censored, otherwise the censor's first censored
// protocol. CountryNone sweeps HTTP (nothing is censored anyway).
func sweepProtocol(country string) string {
	d, ok := eval.CensorByCountry(country)
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

func header(w io.Writer, s string) { fmt.Fprintf(w, "\n=== %s ===\n\n", s) }

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
