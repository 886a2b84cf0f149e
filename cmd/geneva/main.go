// Command geneva is an interactive strategy explorer: type Geneva programs
// and see, immediately, the packet waterfall and the success rate against a
// chosen censor.
//
// Usage:
//
//	geneva [-country china] [-protocol http] [-trials 100]
//
// Then enter one strategy per line (blank line or EOF to exit). Lines
// starting with '#' are comments; the special input "strategies" lists the
// paper's library.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/strategies"
)

func main() {
	country := flag.String("country", "china", "censor to explore against")
	protocol := flag.String("protocol", "http", "protocol to trigger censorship with")
	trials := flag.Int("trials", 100, "trials per rate estimate")
	flag.Parse()
	if err := repl(os.Stdin, os.Stdout, *country, *protocol, *trials); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// repl drives the explorer; split out so tests can feed it input. It
// returns an error, before reading any input, for an unknown country or
// protocol or a trial count below 1.
func repl(in io.Reader, out io.Writer, country, protocol string, trials int) error {
	if err := eval.CheckCountryProtocol(country, protocol); err != nil {
		return err
	}
	if trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", trials)
	}
	fmt.Fprintf(out, "Exploring %s / %s. Enter a Geneva strategy per line (blank to quit).\n",
		country, protocol)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "geneva> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return nil
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			return nil
		case strings.HasPrefix(line, "#"):
			continue
		case line == "strategies":
			for _, s := range strategies.All() {
				fmt.Fprintf(out, "  %2d %-34s %s\n", s.Number, s.Name, s.DSL)
			}
			continue
		}
		evaluate(out, line, country, protocol, trials)
	}
}

func evaluate(out io.Writer, dsl, country, protocol string, trials int) {
	s, err := core.Parse(dsl)
	if err != nil {
		fmt.Fprintf(out, "  parse error: %v\n", err)
		return
	}
	cfg := eval.Config{
		Country:   country,
		Session:   eval.SessionFor(country, protocol, true),
		Strategy:  s,
		Tries:     eval.TriesFor(protocol),
		Seed:      1,
		WithTrace: true,
	}
	rate := eval.Rate(cfg, trials)
	fmt.Fprintf(out, "  success rate over %d trials: %.0f%%\n\n", trials, 100*rate)
	// Show a waterfall of a successful run if one exists, else of a failure.
	res := eval.Run(cfg)
	for seed := int64(2); !res.Success && seed < 200; seed++ {
		cfg.Seed = seed
		res = eval.Run(cfg)
	}
	fmt.Fprint(out, res.Trace.Waterfall("  sample run"))
	if res.Success {
		fmt.Fprintln(out, "  => evaded censorship")
	} else {
		fmt.Fprintln(out, "  => censored / failed")
	}
}
