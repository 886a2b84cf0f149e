package paper

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"geneva/internal/censor/kazakh"
	"geneva/internal/core"
	"geneva/internal/eval"
)

// --- §5.3 Kazakhstan sweeps (E11, E12, E13) ---

// kzRate evaluates a raw DSL strategy against Kazakhstan HTTP.
func kzRate(dsl string, trials int, seed int64) float64 {
	return eval.Rate(eval.Trial(eval.CountryKazakhstan, "http", core.MustParse(dsl), seed), trials)
}

// TripleLoadSweep reproduces E11: Strategy 9 needs >= 3 back-to-back
// payload-bearing SYN+ACKs; payload size does not matter; an empty SYN+ACK
// in the middle breaks it.
type TripleLoadSweep struct {
	OneLoad, TwoLoads, ThreeLoads, FourLoads float64
	TwoLoadsPlusEmptyBetween                 float64
	OneByte, Large                           float64
}

// KazakhTripleLoadSweep runs the sweep.
func KazakhTripleLoadSweep(trials int) TripleLoadSweep {
	return TripleLoadSweep{
		OneLoad:    kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}-| \/ `, trials, 100),
		TwoLoads:   kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate,)-| \/ `, trials, 101),
		ThreeLoads: kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,),)-| \/ `, trials, 102),
		FourLoads:  kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate(duplicate,),),)-| \/ `, trials, 103),
		// load, empty, load: the empty SYN+ACK resets the censor's run.
		TwoLoadsPlusEmptyBetween: kzRate(`[TCP:flags:SA]-duplicate(tamper{TCP:load:corrupt},duplicate(,tamper{TCP:load:corrupt}))-| \/ `, trials, 104),
		OneByte:                  kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:x}(duplicate(duplicate,),)-| \/ `, trials, 105),
		Large:                    kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:`+strings.Repeat("A", 400)+`}(duplicate(duplicate,),)-| \/ `, trials, 106),
	}
}

func printKzTriple(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan Triple Load sweep")
	s := KazakhTripleLoadSweep(10)
	fmt.Fprintf(w, "1 load: %.0f%%  2 loads: %.0f%%  3 loads: %.0f%%  4 loads: %.0f%%\n",
		100*s.OneLoad, 100*s.TwoLoads, 100*s.ThreeLoads, 100*s.FourLoads)
	fmt.Fprintf(w, "load,empty,load: %.0f%% (back-to-back required)\n", 100*s.TwoLoadsPlusEmptyBetween)
	fmt.Fprintf(w, "1-byte payloads: %.0f%%  400-byte payloads: %.0f%% (size irrelevant)\n",
		100*s.OneByte, 100*s.Large)
}

// DoubleGetSweep reproduces E12's minimality findings.
type DoubleGetSweep struct {
	FullPrefix float64 // "GET / HTTP1." x2: works
	Truncated  float64 // "GET / HTTP1" (no dot) x2: fails
	SingleGet  float64 // one GET only: fails
	LongerPath float64 // longer path, still well-formed: works
}

// KazakhDoubleGetSweep runs the sweep.
func KazakhDoubleGetSweep(trials int) DoubleGetSweep {
	return DoubleGetSweep{
		FullPrefix: kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| \/ `, trials, 110),
		Truncated:  kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1}(duplicate,)-| \/ `, trials, 111),
		SingleGet:  kzRate(`[TCP:flags:SA]-duplicate(tamper{TCP:load:replace:GET / HTTP1.},)-| \/ `, trials, 112),
		LongerPath: kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:GET /index.html HTTP/1.1}(duplicate,)-| \/ `, trials, 113),
	}
}

func printKzGet(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan Double GET sweep")
	s := KazakhDoubleGetSweep(10)
	fmt.Fprintf(w, "\"GET / HTTP1.\" x2: %.0f%%   without the '.': %.0f%%\n", 100*s.FullPrefix, 100*s.Truncated)
	fmt.Fprintf(w, "single GET: %.0f%%   longer well-formed GET x2: %.0f%%\n", 100*s.SingleGet, 100*s.LongerPath)
}

// KazakhFlagSweep reproduces E13: the Null Flags strategy works for any
// flag combination avoiding FIN, RST, SYN, and ACK. It returns
// flags-string -> success rate.
func KazakhFlagSweep(trials int) map[string]float64 {
	out := make(map[string]float64)
	for i, flags := range []string{"", "P", "U", "PU", "S", "A", "R", "F", "PA"} {
		dsl := fmt.Sprintf(`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:%s},)-| \/ `, flags)
		key := flags
		if key == "" {
			key = "(none)"
		}
		out[key] = kzRate(dsl, trials, int64(120+i))
	}
	return out
}

func printKzFlags(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan flag sweep (Null Flags)")
	rates := KazakhFlagSweep(8)
	keys := make([]string, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  flags %-7s %4.0f%%\n", k, 100*rates[k])
	}
}

// KazakhProbing reproduces the §5.3 probing observations using the model's
// counters: two forbidden GETs injected during the handshake elicit a
// censor response; a forbidden GET followed by a benign one does not (the
// censor processes the *second* request).
func KazakhProbing() (twoForbidden, forbiddenThenBenign bool) {
	probe := func(first, second string) bool {
		// A rig of its own: Run's pooled rig resets its censor for the
		// next trial, and the count is read after the attempt.
		rig := eval.NewRig(eval.Trial(eval.CountryKazakhstan, "http", core.MustParse(fmt.Sprintf(
			`[TCP:flags:SA]-duplicate(tamper{TCP:load:replace:%s},duplicate(tamper{TCP:load:replace:%s},))-| \/ `,
			first, second)), 130))
		rig.Attempt()
		return rig.Censor.(*kazakh.Kazakh).ProbeResponses > 0
	}
	const forbidden = "GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"
	const benign = "GET / HTTP/1.1\r\nHost: allowed.example\r\n\r\n"
	return probe(forbidden, forbidden), probe(forbidden, benign)
}

func printKzProbe(w io.Writer, _ int) {
	header(w, "§5.3: Kazakhstan probing (the second request is processed)")
	two, fb := KazakhProbing()
	fmt.Fprintf(w, "two forbidden GETs during handshake elicit a response: %v\n", two)
	fmt.Fprintf(w, "forbidden-then-benign elicits a response:             %v\n", fb)
}
