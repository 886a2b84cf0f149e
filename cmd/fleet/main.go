// Command fleet runs the deployment-scale serving harness: one server
// endpoint behind the §8 router serving a mixed-country, mixed-protocol
// client fleet over shared cell networks, with cross-connection censor
// state (GFW residual censorship) exercised for real.
//
// Usage:
//
//	fleet [-connections N] [-countries csv] [-protocols csv]
//	      [-clients N] [-waves N] [-unprotected N] [-gap D]
//	      [-requests N] [-reqgap D]
//	      [-reconnect-max N] [-reconnect-backoff D] [-retry-all]
//	      [-portfolio list] [-select policy]
//	      [-shift-wave N] [-shift-country c] [-shift-params k=v,...]
//	      [-seed N] [-workers N]
//	      [-loss P] [-dup P] [-reorder P] [-jitter D]
//	      [-json] [-metrics] [-manifest out.json]
//
// -portfolio takes a ";"-separated strategy list — each entry a raw Geneva
// DSL program or a bare paper-strategy number (1-11) — and serves routed
// clients from it instead of the registry-pinned §8 strategies. On its own
// the portfolio pins its first entry everywhere; with -select epsilon-greedy
// or -select ucb1 the online control plane races the whole portfolio per
// (country, protocol) and the table grows a per-strategy selection section.
// -select picks only the policy; the bandit's tuning is fixed (DESIGN.md,
// "Online strategy selection").
// -shift-params re-tunes censor calibration (e.g. prst=0, or http.prst=0 to
// scope by protocol) at the start of wave -shift-wave — the lever for the
// collapse-and-recover scenario in EXPERIMENTS.md.
//
// -requests stretches every HTTP/HTTPS/DNS connection into a keep-alive
// session of that many exchanges, spaced -reqgap of virtual time apart, and
// the -reconnect-* flags pick the client's behaviour when a session dies
// mid-way — together they turn the table's availability column into the
// long-horizon outcome a first-connection evasion rate cannot see.
//
// -workers bounds the wave worker pool (0 = one per CPU). It is a pure
// scheduling knob: every number printed is identical at any width; only the
// closing conns/sec line — a wall-clock measurement — varies with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"geneva"
	"geneva/internal/obs"
)

func main() {
	connections := flag.Int("connections", 500, "total client connections across the fleet")
	countries := flag.String("countries", "", "comma-separated countries (default "+
		strings.Join(geneva.Countries()[:len(geneva.Countries())-1], ",")+")")
	protocols := flag.String("protocols", "", "comma-separated protocols the fleet cycles through (default http)")
	clients := flag.Int("clients", 0, "routed clients per cell network (0 = default 4)")
	waves := flag.Int("waves", 0, "connection waves per cell (0 = default 4)")
	unprotected := flag.Int("unprotected", 0, "unrouted clients per cell's mixed waves (0 = default 1, negative = none)")
	gap := flag.Duration("gap", 0, "virtual idle time between waves (0 = default 120s, past the GFW residual window; negative = none)")
	requests := flag.Int("requests", 0, "keep-alive exchanges per connection (0 = one-shot sessions)")
	reqgap := flag.Duration("reqgap", 0, "virtual think time between keep-alive exchanges (0 = default 30s)")
	reconnectMax := flag.Int("reconnect-max", 0, "max connection attempts per session, reconnects included (0 = per-protocol default)")
	reconnectBackoff := flag.Duration("reconnect-backoff", 0, "virtual wait before each reconnect (0 = immediate)")
	retryAll := flag.Bool("retry-all", false, "reconnect after any failure, not only abortive teardown")
	portfolioList := flag.String("portfolio", "", "\";\"-separated strategies (raw DSL or paper number 1-11) routed clients are served from")
	selectPolicy := flag.String("select", "", "online selection policy: epsilon-greedy or ucb1 (default: pinned, no selection)")
	shiftWave := flag.Int("shift-wave", 0, "wave at whose start -shift-params applies")
	shiftCountry := flag.String("shift-country", "", "restrict -shift-params to one country's cells (default all)")
	shiftParams := flag.String("shift-params", "", "comma-separated censor re-tunes, name=value (e.g. prst=0 or http.prst=0)")
	seed := flag.Int64("seed", 1, "base seed; equal workloads agree exactly")
	workers := flag.Int("workers", 0, "wave worker-pool width (0 = one per CPU); results are identical at any width")
	loss := flag.Float64("loss", 0, "per-packet loss probability on every cell network")
	dup := flag.Float64("dup", 0, "per-packet duplication probability")
	reorder := flag.Float64("reorder", 0, "per-packet reordering probability")
	jitter := flag.Duration("jitter", 0, "max random extra delivery delay (e.g. 3ms)")
	asJSON := flag.Bool("json", false, "print the full FleetResult as JSON instead of the table")
	metrics := flag.Bool("metrics", false, "enable cross-layer metrics and print the nonzero ones after the run")
	manifest := flag.String("manifest", "", "write the run manifest (JSON) to this file; implies -metrics")
	flag.Parse()

	if *metrics || *manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}
	d := geneva.Deployment{
		Connections:        *connections,
		ClientsPerCell:     *clients,
		WavesPerCell:       *waves,
		UnprotectedPerCell: *unprotected,
		WaveGap:            *gap,
		SessionRequests:    *requests,
		RequestGap:         *reqgap,
		Reconnect: geneva.ReconnectPolicy{
			MaxAttempts: *reconnectMax,
			Backoff:     *reconnectBackoff,
			RetryAll:    *retryAll,
		},
		Seed:    *seed,
		Workers: *workers,
		Impairments: geneva.Impairments{
			Loss: *loss, Duplicate: *dup, Reorder: *reorder, Jitter: *jitter,
		},
		Selection: geneva.Selection{Policy: geneva.SelectionPolicy(*selectPolicy)},
	}
	if *countries != "" {
		d.Countries = strings.Split(*countries, ",")
	}
	if *protocols != "" {
		d.Protocols = strings.Split(*protocols, ",")
	}
	if *portfolioList != "" {
		p, err := parsePortfolio(*portfolioList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(2)
		}
		d.Portfolio = p
	}
	if *shiftParams != "" {
		params, err := parseShiftParams(*shiftParams)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(2)
		}
		d.Shift = geneva.CensorShift{AtWave: *shiftWave, Country: *shiftCountry, Params: params}
	}

	start := time.Now()
	res, err := geneva.RunDeployment(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if *asJSON {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	} else {
		printTable(res)
	}
	if *manifest != "" {
		if err := res.Manifest.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
	if *metrics {
		fmt.Printf("\n--- metrics ---\n%s", obs.Take().Format())
	}
	// Rate from the unrounded elapsed time: at 10^5+ connections a run can
	// finish in near-millisecond territory per cell, and rounding before
	// dividing (or dividing by a zero-rounded duration) skews the only
	// wall-clock-dependent line the command prints.
	rate := "inf"
	if secs := elapsed.Seconds(); secs > 0 {
		rate = fmt.Sprintf("%.0f", float64(res.Connections)/secs)
	}
	fmt.Printf("\n%d connections in %d cells in %v (%s conns/sec, workers=%d)\n",
		res.Connections, res.Cells, elapsed.Round(time.Millisecond),
		rate, *workers)
}

// parsePortfolio resolves a ";"-separated strategy list: each entry is a raw
// Geneva DSL program, or a bare paper-strategy number looked up in the
// library (so "-portfolio 1;2" races the paper's two Simultaneous Open
// strategies).
func parsePortfolio(list string) (geneva.Portfolio, error) {
	var dsls []string
	for _, entry := range strings.Split(list, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if n, err := strconv.Atoi(entry); err == nil {
			found := false
			for _, s := range geneva.AllStrategies() {
				if s.Number == n {
					dsls = append(dsls, s.DSL)
					found = true
					break
				}
			}
			if !found {
				return geneva.Portfolio{}, fmt.Errorf("no paper strategy %d (valid: 1-%d)", n, len(geneva.AllStrategies()))
			}
			continue
		}
		dsls = append(dsls, entry)
	}
	return geneva.NewPortfolio(dsls...)
}

// parseShiftParams parses "name=value,name=value" censor re-tunes.
func parseShiftParams(list string) (map[string]float64, error) {
	params := make(map[string]float64)
	for _, kv := range strings.Split(list, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("shift param %q: want name=value", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("shift param %q: %v", kv, err)
		}
		params[name] = f
	}
	return params, nil
}

func printTable(res geneva.FleetResult) {
	countries := make([]string, 0, len(res.PerCountry))
	for c := range res.PerCountry {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	fmt.Printf("%-14s %6s %6s %8s %10s %12s %8s %10s %6s\n",
		"country", "conns", "served", "routed", "contested", "unprotected", "evasion", "requests", "avail")
	for _, c := range countries {
		cs := res.PerCountry[c]
		name := c
		if name == "" {
			name = "(uncensored)"
		}
		fmt.Printf("%-14s %6d %6d %3d/%-4d %4d/%-5d %5d/%-6d %7.0f%% %4d/%-5d %5.0f%%\n",
			name, cs.Connections, cs.Succeeded,
			cs.RoutedSucceeded, cs.Routed,
			cs.ContestedSucceeded, cs.Contested,
			cs.UnprotectedSucceeded, cs.Unprotected,
			100*cs.EvasionRate(),
			cs.RequestsServed, cs.RequestsAttempted,
			100*cs.Availability())
	}
	fmt.Printf("\noutcomes: %d served, %d torn down, %d never established\n",
		res.Outcomes["served"], res.Outcomes["torn_down"], res.Outcomes["never_established"])
	fmt.Printf("requests: %d/%d served, availability %.1f%%\n",
		res.RequestsServed, res.RequestsAttempted, 100*res.Availability())
	printSelection(res, countries)
}

// printSelection renders the per-country selection table of a control-plane
// run: one row per (country, portfolio strategy) with pulls and outcome mix.
// Pinned runs have no selection state and print nothing.
func printSelection(res geneva.FleetResult, countries []string) {
	any := false
	for _, c := range countries {
		sel := res.PerCountry[c].Selection
		if len(sel) == 0 {
			continue
		}
		if !any {
			fmt.Printf("\nselection (%d fallbacks fleet-wide):\n", res.Fallbacks)
			fmt.Printf("%-14s %6s %6s %6s %8s  %s\n",
				"country", "pulls", "served", "torn", "unestab", "strategy")
			any = true
		}
		names := make([]string, 0, len(sel))
		for n := range sel {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			arm := sel[n]
			fmt.Printf("%-14s %6d %6d %6d %8d  %s\n",
				c, arm.Pulls, arm.Served, arm.TornDown, arm.Unestablished, n)
		}
	}
}
