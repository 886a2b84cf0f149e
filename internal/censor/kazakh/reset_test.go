package kazakh

import (
	"fmt"
	"testing"

	"geneva/internal/censor"
	"geneva/internal/packet"
)

// resetSequence hijacks a forbidden request on one flow and draws a probe
// response on a second (two forbidden GETs from the server during the
// handshake), and renders what the censor decided and keeps.
func resetSequence(k *Kazakh) string {
	probe := func(p *packet.Packet) *packet.Packet {
		if p.IP.Src == cli {
			p.TCP.SrcPort = 40001
		} else {
			p.TCP.DstPort = 40001
		}
		return p
	}
	vs := feed(k, 0,
		cliPkt(sy, ""), srvPkt(sa, ""), cliPkt(ak, ""), cliPkt(pa, forbidden),
		probe(cliPkt(sy, "")), probe(srvPkt(sa, forbidden)), probe(srvPkt(sa, forbidden)))
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return fmt.Sprintf("%q censored=%d probes=%d flows=%d", out, k.Censored, k.ProbeResponses, k.flows.Len())
}

// TestCensorResetKazakh drives the censor through a sequence, resets it,
// and drives the sequence again. Its verdicts, counts and flows must be
// those of a fresh New: a kept hijack would intercept the new handshake.
func TestCensorResetKazakh(t *testing.T) {
	k := New(censor.Default(), nil)
	resetSequence(k)
	if k.Censored == 0 || k.ProbeResponses == 0 || k.flows.Len() == 0 {
		t.Fatalf("the first sequence left no state to reset: censored=%d probes=%d flows=%d",
			k.Censored, k.ProbeResponses, k.flows.Len())
	}
	k.Reset(nil)
	if got, want := resetSequence(k), resetSequence(New(censor.Default(), nil)); got != want {
		t.Errorf("reset censor diverges from a fresh one\n reset: %s\n fresh: %s", got, want)
	}
}
