package tmc

import (
	"fmt"
	"testing"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// resetSequence taints the server with a forbidden request, opens a second
// window through the carrier seam, and sends a new connection's handshake
// ACK inside both. It renders the verdicts, the count, the tables and the
// windows the carrier exports.
func resetSequence(c censor.ResidualDPI) string {
	// Rendered at once: the verdict's slices borrow the censor's scratch
	// only until its next Process call.
	req := fmt.Sprint(c.Process(trigger(80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")), netsim.ToServer, 0))
	c.SeedResidual("198.51.100.10:443", time.Minute)
	ack := packet.New(cli, srv, 40001, 80)
	ack.TCP.Flags = packet.FlagACK
	again := c.Process(ack, netsim.ToServer, time.Second)
	b, r := c.Tracked()
	exported := 0
	c.ExportResidual(time.Second, func(string, time.Duration) { exported++ })
	return fmt.Sprintf("%s\n%v\ncensored=%d blackholes=%d residual=%d exported=%d",
		req, again, c.Censored, b, r, exported)
}

// TestCensorResetResidualDPI resets the Turkmenistan censor through its
// ResidualDPI value, after one sequence left a tainted server and a seeded
// window: the second sequence must go as it does on a fresh New.
func TestCensorResetResidualDPI(t *testing.T) {
	c := New(censor.Default(), nil)
	resetSequence(c)
	c.Reset(nil)
	if got, want := resetSequence(c), resetSequence(New(censor.Default(), nil)); got != want {
		t.Errorf("reset censor diverges from a fresh one\n--- reset ---\n%s\n--- fresh ---\n%s", got, want)
	}
}
