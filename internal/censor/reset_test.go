package censor

import (
	"fmt"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// TestCensorResetFlowTable fills a table past its bound, resets it, and
// fills it again the same way. It must end as a fresh table filled that
// way does: the same survivors with their own state, so eviction still
// went oldest-created first, and no slot beyond the ones it already had.
func TestCensorResetFlowTable(t *testing.T) {
	var reused, fresh FlowTable[int]
	fillPastBound(&reused)
	slots := reused.Len() + len(reused.free)
	reused.Reset()
	if reused.Len() != 0 || reused.oldest != nil || reused.newest != nil || len(reused.free) != slots {
		t.Fatalf("reset table tracks %d flows and frees %d of its %d slots, want 0 and all", reused.Len(), len(reused.free), slots)
	}
	if reused.Get(flowN(2*maxFlows-1)) != nil {
		t.Fatal("a reset table still tracks its newest flow")
	}
	_, evReused := fillPastBound(&reused)
	_, evFresh := fillPastBound(&fresh)
	if evReused != evFresh || reused.Len() != fresh.Len() {
		t.Fatalf("reset table evicted %d and holds %d flows; a fresh one evicted %d and holds %d",
			evReused, reused.Len(), evFresh, fresh.Len())
	}
	for n := 0; n < 2*maxFlows; n++ {
		a, b := reused.Get(flowN(n)), fresh.Get(flowN(n))
		if (a == nil) != (b == nil) || (a != nil && *a != *b) {
			t.Fatalf("flow %d: reset table and fresh table disagree", n)
		}
	}
	if got := reused.Len() + len(reused.free); got != slots {
		t.Errorf("the refilled table holds %d slots, want the %d it had", got, slots)
	}
}

// dpiSequence is one pass of forbidden triggers on every inspected port,
// both ways, at now. A second pass inside the first one's windows meets
// its blackholes and tainted servers.
func dpiSequence(d *DPI, now time.Duration) []string {
	type trig struct {
		port    uint16
		payload []byte
	}
	var out []string
	for _, tr := range []trig{
		{53, apps.EncodeDNSQuery("www.wikipedia.org")},
		{80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")},
		{443, apps.EncodeClientHello("www.wikipedia.org")},
	} {
		for _, dir := range []netsim.Direction{netsim.ToServer, netsim.ToClient} {
			pkt := packet.New(fuzzCli, fuzzSrv, 40000, tr.port)
			if dir == netsim.ToClient {
				pkt = packet.New(fuzzSrv, fuzzCli, tr.port, 40000)
			}
			pkt.TCP.Flags = packet.FlagPSH | packet.FlagACK
			pkt.TCP.Seq, pkt.TCP.Ack = 1000, 2000
			pkt.TCP.Payload = tr.payload
			out = append(out, fmt.Sprint(d.Process(pkt, dir, now)))
		}
	}
	b, r := d.Tracked()
	return append(out, fmt.Sprintf("censored=%d blackholes=%d residual=%d", d.Censored, b, r))
}

// TestCensorResetDPI drives every calibration of fuzzParams through one
// sequence, re-tunes it, resets it, and drives a second sequence. Its
// verdicts, count and tables must be those of a fresh NewDPI on the
// second sequence.
func TestCensorResetDPI(t *testing.T) {
	for _, p := range fuzzParams() {
		d := NewDPI(p, Default())
		if first := dpiSequence(d, 0); first[len(first)-1] == "censored=0 blackholes=0 residual=0" {
			t.Fatalf("action %d (bidirectional %v): the first sequence left no state to reset", p.HTTP, p.Bidirectional)
		}
		d.P.HTTP, d.P.SNI, d.P.DNS = ActionNone, ActionNone, ActionNone
		d.Reset(nil)
		got := dpiSequence(d, time.Second)
		want := dpiSequence(NewDPI(p, Default()), time.Second)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("action %d (bidirectional %v): reset censor diverges from a fresh one\n reset: %q\n fresh: %q",
				p.HTTP, p.Bidirectional, got, want)
		}
	}
}
