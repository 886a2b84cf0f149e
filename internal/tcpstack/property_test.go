package tcpstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// TestTransferIntegrityProperty: whatever the transfer sizes, the advertised
// windows, and the MSS clamping, every byte the applications send arrives
// intact and in order when nothing drops packets.
func TestTransferIntegrityProperty(t *testing.T) {
	f := func(seed int64, reqLen, respLen uint16, clampWindow uint16, clampMSS uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		req := make([]byte, int(reqLen)%4096+1)
		resp := make([]byte, int(respLen)%4096+1)
		rng.Read(req)
		rng.Read(resp)

		srvApp := &testApp{response: resp}
		client := NewEndpoint(clientAddr, DefaultClient, rand.New(rand.NewSource(seed)))
		server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(seed+1)))
		server.NewServerApp = func(*Conn) App { return srvApp }
		server.Listen(80)
		// A strategy-like SYN+ACK mangler that clamps window and/or MSS.
		server.Outbound = func(p *packet.Packet) []*packet.Packet {
			if p.TCP.Flags == packet.FlagSYN|packet.FlagACK {
				if clampWindow%3 == 0 {
					p.TCP.Window = clampWindow%64 + 4 // tiny windows
					p.TCP.RemoveOption(packet.OptWScale)
				}
				if clampMSS%3 == 0 {
					mss := clampMSS%128 + 8
					p.TCP.RemoveOption(packet.OptMSS)
					p.TCP.AddOption(packet.OptMSS, byte(mss>>8), byte(mss))
				}
			}
			return []*packet.Packet{p}
		}
		n := netsim.New(client, server)
		client.Attach(n)
		server.Attach(n)
		cliApp := &testApp{request: req}
		client.Connect(serverAddr, 80, cliApp)
		n.Run(0)
		return bytes.Equal(srvApp.data, req) && bytes.Equal(cliApp.data, resp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStackIgnoresArbitraryGarbageProperty: random packets injected into an
// established connection never corrupt the stream or panic; only a
// correctly-numbered RST may abort it.
func TestStackIgnoresArbitraryGarbageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		srvApp := &testApp{response: []byte("the real response body")}
		client := NewEndpoint(clientAddr, DefaultClient, rand.New(rand.NewSource(seed)))
		server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(seed+1)))
		server.NewServerApp = func(*Conn) App { return srvApp }
		server.Listen(80)
		n := netsim.New(client, server)
		client.Attach(n)
		server.Attach(n)
		cliApp := &testApp{request: []byte("request")}
		conn := client.Connect(serverAddr, 80, cliApp)
		n.Run(0)
		if !cliApp.established {
			return false
		}
		// Garbage flood toward the client on the same flow, but with
		// random (out-of-window) numbers.
		for i := 0; i < 30; i++ {
			g := packet.New(serverAddr, clientAddr, 80, conn.Flow().SrcPort)
			g.TCP.Flags = uint8(rng.Intn(64))
			g.TCP.Seq = conn.rcvNxt + 1<<16 + rng.Uint32()%(1<<30)
			g.TCP.Ack = rng.Uint32()
			payload := make([]byte, rng.Intn(64))
			rng.Read(payload)
			g.TCP.Payload = payload
			n.Inject(g, netsim.ToClient)
		}
		n.Run(0)
		// The delivered stream must be exactly the real response.
		return bytes.Equal(cliApp.data, []byte("the real response body"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSimOpenWorksForAllPersonalities: simultaneous open (the heart of
// Strategies 1-3) must complete on every OS the paper tested.
func TestSimOpenWorksForAllPersonalities(t *testing.T) {
	for _, os := range AllPersonalities {
		srvApp := &testApp{response: []byte("ok")}
		client := NewEndpoint(clientAddr, os, rand.New(rand.NewSource(1)))
		server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(2)))
		server.NewServerApp = func(*Conn) App { return srvApp }
		server.Listen(80)
		server.Outbound = func(p *packet.Packet) []*packet.Packet {
			if p.TCP.Flags == packet.FlagSYN|packet.FlagACK {
				syn := p.Clone()
				syn.TCP.Flags = packet.FlagSYN
				syn.TCP.Ack = 0
				return []*packet.Packet{syn}
			}
			return []*packet.Packet{p}
		}
		n := netsim.New(client, server)
		client.Attach(n)
		server.Attach(n)
		cliApp := &testApp{request: []byte("q")}
		conn := client.Connect(serverAddr, 80, cliApp)
		n.Run(0)
		if !conn.SimOpen || !bytes.Equal(cliApp.data, []byte("ok")) {
			t.Errorf("%s: simultaneous open failed (simOpen=%v got=%q)",
				os.Name, conn.SimOpen, cliApp.data)
		}
	}
}
