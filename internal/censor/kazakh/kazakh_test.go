package kazakh

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

var (
	cli = netip.MustParseAddr("10.1.0.2")
	srv = netip.MustParseAddr("198.51.100.9")
)

func cliPkt(flags uint8, payload string) *packet.Packet {
	p := packet.New(cli, srv, 40000, 80)
	p.TCP.Flags = flags
	p.TCP.Payload = []byte(payload)
	return p
}

func srvPkt(flags uint8, payload string) *packet.Packet {
	p := packet.New(srv, cli, 80, 40000)
	p.TCP.Flags = flags
	p.TCP.Payload = []byte(payload)
	return p
}

const (
	sa = packet.FlagSYN | packet.FlagACK
	pa = packet.FlagPSH | packet.FlagACK
	ak = packet.FlagACK
	sy = packet.FlagSYN
)

const forbidden = "GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"

func feed(k *Kazakh, at time.Duration, pkts ...*packet.Packet) []netsim.Verdict {
	var out []netsim.Verdict
	for _, p := range pkts {
		dir := netsim.ToServer
		if p.IP.Src == srv {
			dir = netsim.ToClient
		}
		out = append(out, kept(k.Process(p, dir, at)))
	}
	return out
}

// kept copies a verdict's injection slices, which borrow the censor's
// scratch only until its next Process call, so the verdict can be kept.
func kept(v netsim.Verdict) netsim.Verdict {
	v.InjectToClient = slices.Clone(v.InjectToClient)
	v.InjectToServer = slices.Clone(v.InjectToServer)
	return v
}

func TestHijacksForbiddenRequest(t *testing.T) {
	k := New(censor.Default(), nil)
	vs := feed(k, 0,
		cliPkt(sy, ""), srvPkt(sa, ""), cliPkt(ak, ""),
		cliPkt(pa, forbidden))
	last := vs[len(vs)-1]
	if !last.Drop {
		t.Fatal("the in-path censor must intercept the forbidden request")
	}
	if len(last.InjectToClient) != 1 || last.InjectToClient[0].TCP.Flags != packet.FlagFIN|packet.FlagPSH|packet.FlagACK {
		t.Error("no FIN+PSH+ACK block page injected")
	}
	// The MITM holds the flow for ~15 s.
	if v := feed(k, 10*time.Second, cliPkt(pa, "GET /other HTTP/1.1\r\nHost: ok\r\n\r\n"))[0]; !v.Drop {
		t.Error("flow not intercepted during the 15s MITM window")
	}
	if v := feed(k, 20*time.Second, cliPkt(pa, "GET /other HTTP/1.1\r\nHost: ok\r\n\r\n"))[0]; v.Drop {
		t.Error("interception outlived the 15s window")
	}
	if k.CensoredCount() != 1 {
		t.Errorf("CensoredCount = %d", k.CensoredCount())
	}
}

func TestTriplePayloadRunIgnoresConnection(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sa, "x"), srvPkt(sa, "x"), srvPkt(sa, "x"),
		cliPkt(ak, ""))
	if v := feed(k, 0, cliPkt(pa, forbidden))[0]; v.Drop {
		t.Error("connection not ignored after three back-to-back server payloads")
	}
}

func TestEmptySynAckBreaksTheRun(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sa, "x"), srvPkt(sa, "x"),
		srvPkt(sa, ""), // resets the back-to-back run
		srvPkt(sa, "x"),
		cliPkt(ak, ""))
	if v := feed(k, 0, cliPkt(pa, forbidden))[0]; !v.Drop {
		t.Error("run should have been reset by the empty SYN+ACK; censorship expected")
	}
}

func TestDoubleBenignGetConfusesRoles(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sa, "GET / HTTP1."), srvPkt(sa, "GET / HTTP1."),
		cliPkt(ak, ""))
	if v := feed(k, 0, cliPkt(pa, forbidden))[0]; v.Drop {
		t.Error("two benign server GETs should confuse the censor into ignoring the flow")
	}
	if k.ProbeResponses != 0 {
		t.Error("benign GETs counted as probes")
	}
}

func TestSingleGetDoesNotConfuse(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sa, "GET / HTTP1."), srvPkt(sa, ""),
		cliPkt(ak, ""))
	if v := feed(k, 0, cliPkt(pa, forbidden))[0]; !v.Drop {
		t.Error("a single server GET must not defeat the censor")
	}
}

func TestTwoForbiddenGetsElicitProbeResponse(t *testing.T) {
	k := New(censor.Default(), nil)
	vs := feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sa, forbidden), srvPkt(sa, forbidden))
	if k.ProbeResponses != 1 {
		t.Fatalf("ProbeResponses = %d, want 1 (the second request is processed)", k.ProbeResponses)
	}
	if len(vs[2].InjectToServer) == 0 {
		t.Error("no censorship response toward the probing server")
	}
}

func TestForbiddenThenBenignNotCensored(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sa, forbidden),
		srvPkt(sa, "GET / HTTP/1.1\r\nHost: allowed.example\r\n\r\n"))
	if k.ProbeResponses != 0 {
		t.Error("the censor processed the first request; it should process the second")
	}
}

func TestAbnormalFlagsIgnoreConnection(t *testing.T) {
	for _, flags := range []uint8{0, packet.FlagPSH, packet.FlagURG, packet.FlagPSH | packet.FlagURG} {
		k := New(censor.Default(), nil)
		feed(k, 0,
			cliPkt(sy, ""),
			srvPkt(flags, ""), srvPkt(sa, ""),
			cliPkt(ak, ""))
		if v := feed(k, 0, cliPkt(pa, forbidden))[0]; v.Drop {
			t.Errorf("flags %q: abnormal handshake packet should make the censor give up",
				packet.FlagsString(flags))
		}
	}
}

func TestNormalFlagVariantsStillCensored(t *testing.T) {
	for _, flags := range []uint8{packet.FlagACK, packet.FlagFIN, packet.FlagRST | packet.FlagACK} {
		k := New(censor.Default(), nil)
		feed(k, 0,
			cliPkt(sy, ""),
			srvPkt(flags, ""), srvPkt(sa, ""),
			cliPkt(ak, ""))
		if v := feed(k, 0, cliPkt(pa, forbidden))[0]; !v.Drop {
			t.Errorf("flags %q contain normal handshake bits; censorship expected",
				packet.FlagsString(flags))
		}
	}
}

func TestSimOpenSwapsRolesButClientStillCensored(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0,
		cliPkt(sy, ""),
		srvPkt(sy, ""), // simultaneous open
		cliPkt(sa, ""), srvPkt(ak, ""))
	// A forbidden GET from the server side is now inspected...
	vs := feed(k, 0, srvPkt(pa, forbidden))
	if k.ProbeResponses != 1 {
		t.Error("post-sim-open server request not processed")
	}
	_ = vs
	// ...and the real client is still censored on a fresh flow shape.
	k2 := New(censor.Default(), nil)
	feed(k2, 0, cliPkt(sy, ""), srvPkt(sy, ""), cliPkt(sa, ""), srvPkt(ak, ""))
	if v := feed(k2, 0, cliPkt(pa, forbidden))[0]; !v.Drop {
		t.Error("simultaneous open alone must not defeat the Kazakhstan censor")
	}
}

func TestNonHTTPPortIgnored(t *testing.T) {
	k := New(censor.Default(), nil)
	p := packet.New(cli, srv, 40000, 8080)
	p.TCP.Flags = pa
	p.TCP.Payload = []byte(forbidden)
	if v := k.Process(p, netsim.ToServer, 0); v.Drop {
		t.Error("censored off port 80")
	}
}

func TestSegmentedRequestPasses(t *testing.T) {
	k := New(censor.Default(), nil)
	feed(k, 0, cliPkt(sy, ""), srvPkt(sa, ""), cliPkt(ak, ""))
	if v := feed(k, 0, cliPkt(pa, forbidden[:10]))[0]; v.Drop {
		t.Error("first segment censored")
	}
	if v := feed(k, 0, cliPkt(pa, forbidden[10:]))[0]; v.Drop {
		t.Error("second segment censored; the censor cannot reassemble")
	}
}

// Keep-alive pipelining: a forbidden request coalesced behind a benign one
// in a single packet used to pass the MITM — it only ever matched the Host
// of the first request in a payload.
func TestPipelinedForbiddenRequestHijacked(t *testing.T) {
	k := New(censor.Default(), nil)
	const pipelined = "GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n" + forbidden
	vs := feed(k, 0,
		cliPkt(sy, ""), srvPkt(sa, ""), cliPkt(ak, ""),
		cliPkt(pa, pipelined))
	last := vs[len(vs)-1]
	if !last.Drop {
		t.Fatal("pipelined forbidden request not intercepted")
	}
	if len(last.InjectToClient) != 1 {
		t.Fatalf("injected %d packets, want the block page", len(last.InjectToClient))
	}
	if k.Censored != 1 {
		t.Errorf("Censored = %d, want 1", k.Censored)
	}
}

// 4-tuple reuse: once a connection is ignored (Strategy 11's null flags), a
// later connection on the same tuple used to inherit the verdict, so its
// forbidden request passed uncensored — on a fresh tuple the same request
// is censored.
func TestTupleReuseResetsFlowState(t *testing.T) {
	syn := func(isn uint32) *packet.Packet {
		p := cliPkt(sy, "")
		p.TCP.Seq = isn
		return p
	}
	k := New(censor.Default(), nil)
	feed(k, 0, syn(100), srvPkt(0, ""), srvPkt(sa, ""), cliPkt(ak, ""))
	if v := feed(k, 0, cliPkt(pa, forbidden))[0]; v.Drop {
		t.Fatal("null-flags handshake did not make the censor ignore the flow")
	}
	// A retransmitted SYN (same ISN) is the same connection.
	feed(k, time.Second, syn(100))
	if v := feed(k, time.Second, cliPkt(pa, forbidden))[0]; v.Drop {
		t.Error("a retransmitted SYN reset the ignored flow")
	}
	// A new connection (new ISN) on the same tuple starts clean.
	vs := feed(k, time.Minute, syn(900), srvPkt(sa, ""), cliPkt(ak, ""), cliPkt(pa, forbidden))
	if !vs[len(vs)-1].Drop {
		t.Error("a new connection on a reused tuple inherited the ignored verdict")
	}
}

// TestFlowTableBounded drives more port-80 flows than the flow table's
// 65,536 bound through the censor, each one ignored after a null-flags
// packet. The table must stay within the bound, and a new flow landing in
// a slot an ignored flow vacated must start clean.
func TestFlowTableBounded(t *testing.T) {
	const bound = 65536
	k := New(censor.Default(), nil)
	from := func(i int, p *packet.Packet) *packet.Packet {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		if p.IP.Src == cli {
			p.IP.Src = a
		} else {
			p.IP.Dst = a
		}
		return p
	}
	for i := 0; i < bound+1000; i++ {
		k.Process(from(i, cliPkt(sy, "")), netsim.ToServer, 0)
		k.Process(from(i, srvPkt(0, "")), netsim.ToClient, 0)
	}
	if n := k.flows.Len(); n > bound {
		t.Errorf("flow table holds %d flows, bound is %d", n, bound)
	}
	const fresh = 250 << 16 // an address no flow above used
	vs := feed(k, 0, from(fresh, cliPkt(sy, "")), from(fresh, srvPkt(sa, "")),
		from(fresh, cliPkt(ak, "")), from(fresh, cliPkt(pa, forbidden)))
	if !vs[len(vs)-1].Drop {
		t.Error("a new flow in a recycled slot inherited an ignored verdict")
	}
}
