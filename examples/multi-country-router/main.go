// multi-country-router: the §8 deployment scenario — one server helps
// clients in four different censoring regimes at once, choosing each
// client's strategy from nothing but its address in the SYN (country-level
// geolocation). Also demonstrates exporting a connection trace as a pcap
// file readable by Wireshark.
//
//	go run ./examples/multi-country-router
package main

import (
	"fmt"
	"net/netip"
	"os"

	"geneva/internal/eval"
	"geneva/internal/strategies"
)

func main() {
	fmt.Println("One router, four censors. Strategy per region:")
	fmt.Printf("  %-12s -> Strategy 1 (%s)\n", "China", strategies.Strategy1.Name)
	fmt.Printf("  %-12s -> Strategy 8 (%s)\n", "India", strategies.Strategy8.Name)
	fmt.Printf("  %-12s -> Strategy 8 (%s)\n", "Iran", strategies.Strategy8.Name)
	fmt.Printf("  %-12s -> Strategy 11 (%s)\n", "Kazakhstan", strategies.Strategy11.Name)
	fmt.Println()

	got := eval.RouterDeployment(60)
	for _, c := range []string{"china", "india", "iran", "kazakhstan", ""} {
		label := c
		if label == "" {
			label = "(uncensored)"
		}
		fmt.Printf("  %-12s success through the shared router: %3.0f%%\n", label, 100*got[c])
	}

	// Bonus: capture one routed Kazakhstan connection to a pcap file.
	cfg := eval.Config{
		Country:       eval.CountryKazakhstan,
		Session:       eval.SessionFor(eval.CountryKazakhstan, "http", true),
		ClientAddress: netip.MustParseAddr("10.4.0.2"), // inside the Kazakhstan route
		Seed:          1,
		WithTrace:     true,
		Hook: func(r *eval.Rig) {
			r.Server.Outbound = eval.NewDeploymentRouter(1).Outbound
		},
	}
	res := eval.Run(cfg)
	f, err := os.CreateTemp("", "geneva-kazakhstan-*.pcap")
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if err := res.Trace.WritePcap(f); err != nil {
		panic(err)
	}
	fmt.Printf("\nWrote a Wireshark-readable capture of the evading connection to %s\n", f.Name())
}
