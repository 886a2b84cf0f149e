package tcpstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"geneva/internal/netsim"
)

// TestTransferUnderImpairmentProperty is the retransmission machinery's
// contract: under ANY impairment profile (loss ≤ 30%, plus arbitrary
// reordering and duplication), an uncensored transfer either completes with
// exactly the right bytes or fails cleanly once the retry budget is spent.
// It never delivers corrupted data and never loops forever — the event count
// (virtual-clock steps) stays far below the runaway limit.
func TestTransferUnderImpairmentProperty(t *testing.T) {
	f := func(seed int64, lossPm, dupPm, reorderPm, jitterMs uint16, reqLen, respLen uint16) bool {
		prof := netsim.Profile{
			Loss:      float64(lossPm%301) / 1000, // ≤ 30%
			Duplicate: float64(dupPm%1001) / 1000,
			Reorder:   float64(reorderPm%1001) / 1000,
			Jitter:    time.Duration(jitterMs%20) * time.Millisecond,
		}
		rng := rand.New(rand.NewSource(seed))
		req := make([]byte, int(reqLen)%4096+1)
		resp := make([]byte, int(respLen)%4096+1)
		rng.Read(req)
		rng.Read(resp)

		srvApp := &testApp{response: resp}
		client := NewEndpoint(clientAddr, DefaultClient, rand.New(rand.NewSource(seed)))
		server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(seed+1)))
		client.Retransmit = true
		server.Retransmit = true
		server.NewServerApp = func(*Conn) App { return srvApp }
		server.Listen(80)
		n := netsim.New(client, server)
		n.SetImpairments(netsim.Symmetric(prof), rand.New(rand.NewSource(seed+2)))
		client.Attach(n)
		server.Attach(n)
		cliApp := &testApp{request: req}
		client.Connect(serverAddr, 80, cliApp)

		const bound = 100000
		if n.Run(bound) >= bound || !n.Quiet() {
			t.Logf("seed=%d profile=%+v: did not quiesce within %d steps", seed, prof, bound)
			return false
		}
		// Whatever arrived must be an exact prefix of the intended stream:
		// impairment may stall a transfer, never corrupt it.
		if len(srvApp.data) > len(req) || !bytes.Equal(srvApp.data, req[:len(srvApp.data)]) {
			t.Logf("seed=%d: server stream corrupted", seed)
			return false
		}
		if len(cliApp.data) > len(resp) || !bytes.Equal(cliApp.data, resp[:len(cliApp.data)]) {
			t.Logf("seed=%d: client stream corrupted", seed)
			return false
		}
		// Either the transfer completed, or at least one side gave up
		// cleanly (OnClose without reset) after its retry budget.
		complete := bytes.Equal(srvApp.data, req) && bytes.Equal(cliApp.data, resp)
		cleanFail := (cliApp.closed && !cliApp.reset) || (srvApp.closed && !srvApp.reset)
		if !complete && !cleanFail {
			t.Logf("seed=%d profile=%+v: neither complete nor cleanly failed (cli=%d/%d srv=%d/%d)",
				seed, prof, len(cliApp.data), len(resp), len(srvApp.data), len(req))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
