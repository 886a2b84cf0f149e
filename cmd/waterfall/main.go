// Command waterfall draws the packet waterfall diagrams of the paper's
// Figures 1 and 2 from live simulated connections.
//
// Usage:
//
//	waterfall [-country C] [-strategy N]
//
// With -strategy it draws that strategy against any modeled country (HTTP).
// Without it, it draws a whole figure: -country china (Figure 1) or
// kazakhstan (Figure 2).
package main

import (
	"flag"
	"fmt"
	"os"

	"geneva/internal/eval"
	"geneva/internal/strategies"
)

func main() {
	country := flag.String("country", "china", "censor to draw against (china or kazakhstan without -strategy)")
	number := flag.Int("strategy", 0, "strategy number (0 = the whole figure)")
	flag.Parse()

	switch {
	case *number != 0:
		s, ok := strategies.ByNumber(*number)
		if !ok {
			fmt.Fprintf(os.Stderr, "no strategy %d\n", *number)
			os.Exit(2)
		}
		if err := eval.CheckCountryProtocol(*country, "http"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(eval.Waterfall(*country, &s, eval.EvadingSeed(*country, s)))
	case *country == "china":
		fmt.Print(eval.Figure1())
	case *country == "kazakhstan":
		fmt.Print(eval.Figure2())
	default:
		fmt.Fprintf(os.Stderr, "unknown country %q\n", *country)
		os.Exit(2)
	}
}
