package gfw

import (
	"math/rand"
	"net/netip"
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

// deterministic builds a GFW of one box with every probabilistic trigger
// forced on or off, so unit tests exercise mechanics, not sampling.
func deterministic(p Params) *GFW {
	return &GFW{Boxes: []*Box{NewBox(p, censor.Default(), rand.New(rand.NewSource(1)))}}
}

func httpParamsAllOn() Params {
	return Params{
		Protocol: "http",
		PMiss:    0, PRst: 1, PLoad: 1, PCorruptAck: 1, PLoadSA: 1,
		PNoReassembly: 0, PReacquire: 1,
	}
}

func httpParamsAllOff() Params {
	return Params{Protocol: "http"}
}

// mk builds a packet between client and server.
func mk(fromClient bool, flags uint8, seq, ack uint32, payload string) *packet.Packet {
	var p *packet.Packet
	if fromClient {
		p = packet.New(cli, srv, 40000, 80)
	} else {
		p = packet.New(srv, cli, 80, 40000)
	}
	p.TCP.Flags = flags
	p.TCP.Seq = seq
	p.TCP.Ack = ack
	p.TCP.Payload = []byte(payload)
	return p
}

const (
	sa  = packet.FlagSYN | packet.FlagACK
	pa  = packet.FlagPSH | packet.FlagACK
	ack = packet.FlagACK
	syn = packet.FlagSYN
	rst = packet.FlagRST
	fin = packet.FlagFIN
)

// feed runs packets through the GFW in order; dir is inferred from src.
func feed(g *GFW, pkts ...*packet.Packet) []netsim.Verdict {
	var out []netsim.Verdict
	for i, p := range pkts {
		dir := netsim.ToServer
		if p.IP.Src == srv {
			dir = netsim.ToClient
		}
		out = append(out, g.Process(p, dir, time.Duration(i)*time.Millisecond))
	}
	return out
}

const forbiddenGET = "GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n"

func handshake(iss, irs uint32) []*packet.Packet {
	return []*packet.Packet{
		mk(true, syn, iss, 0, ""),
		mk(false, sa, irs, iss+1, ""),
		mk(true, ack, iss+1, irs+1, ""),
	}
}

func TestCensorsForbiddenHTTPAfterHandshake(t *testing.T) {
	g := deterministic(httpParamsAllOff())
	pkts := append(handshake(100, 500), mk(true, pa, 101, 501, forbiddenGET))
	vs := feed(g, pkts...)
	last := vs[len(vs)-1]
	if len(last.InjectToClient) == 0 || len(last.InjectToServer) == 0 {
		t.Fatal("no tear-down injected for a forbidden request")
	}
	// The injected RSTs must carry TCB-accurate numbers.
	if got := last.InjectToClient[0].TCP.Seq; got != 501 {
		t.Errorf("RST to client seq = %d, want expServer 501", got)
	}
	// The server will have consumed the query, so the acceptable RST
	// carries the post-query sequence number.
	if got, want := last.InjectToServer[0].TCP.Seq, uint32(101+len(forbiddenGET)); got != want {
		t.Errorf("RST to server seq = %d, want expClient %d", got, want)
	}
	if g.CensoredCount() != 1 {
		t.Errorf("Censored = %d", g.CensoredCount())
	}
}

func TestFailsOpenWithoutTCB(t *testing.T) {
	g := deterministic(httpParamsAllOff())
	vs := feed(g, mk(true, pa, 101, 501, forbiddenGET))
	if len(vs[0].InjectToClient) != 0 {
		t.Error("censored a flow with no TCB (the GFW requires a SYN)")
	}
}

func TestBenignRequestPasses(t *testing.T) {
	g := deterministic(httpParamsAllOff())
	pkts := append(handshake(100, 500), mk(true, pa, 101, 501, "GET /?q=kittens HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	feed(g, pkts...)
	if g.CensoredCount() != 0 {
		t.Error("censored a benign request")
	}
}

func TestClientTeardownHonoredServerTeardownIgnored(t *testing.T) {
	// §3: a valid client RST deletes the TCB; a server RST never does.
	g := deterministic(httpParamsAllOff())
	pkts := append(handshake(100, 500),
		mk(true, rst, 101, 0, ""), // valid client RST
		mk(true, pa, 101, 501, forbiddenGET))
	feed(g, pkts...)
	if g.CensoredCount() != 0 {
		t.Error("request censored after a valid client tear-down")
	}

	g2 := deterministic(httpParamsAllOff()) // PRst = 0: no resync either
	pkts2 := append(handshake(100, 500),
		mk(false, rst, 501, 0, ""), // server RST
		mk(true, pa, 101, 501, forbiddenGET))
	feed(g2, pkts2...)
	if g2.CensoredCount() != 1 {
		t.Error("server RST affected the TCB; §3 says only client packets tear down")
	}
}

func TestInvalidClientRstIgnored(t *testing.T) {
	g := deterministic(httpParamsAllOff())
	pkts := append(handshake(100, 500),
		mk(true, rst, 0xdeadbeef, 0, ""), // garbage seq
		mk(true, pa, 101, 501, forbiddenGET))
	feed(g, pkts...)
	if g.CensoredCount() != 1 {
		t.Error("out-of-sync client RST tore down the TCB")
	}
}

func TestDesyncByOneEvades(t *testing.T) {
	// The client stream one byte off the TCB expectation is invisible.
	g := deterministic(httpParamsAllOff())
	pkts := append(handshake(100, 500), mk(true, pa, 100, 501, forbiddenGET))
	feed(g, pkts...)
	if g.CensoredCount() != 0 {
		t.Error("desynchronized request was censored")
	}
}

func TestSimultaneousOpenResyncBug(t *testing.T) {
	// Strategy-1 shape: server RST (resync), server SYN, client SYN+ACK.
	// The box must adopt the SYN+ACK's *unincremented* seq, leaving it
	// one byte behind the client's real data.
	g := deterministic(httpParamsAllOn())
	feed(g,
		mk(true, syn, 100, 0, ""),
		mk(false, rst, 500, 0, ""), // trigger 2 -> resync on next client pkt
		mk(false, syn, 500, 0, ""), // sim open
		mk(true, sa, 100, 501, ""), // client SYN+ACK reusing ISS
		mk(false, ack, 501, 101, ""),
		mk(true, pa, 101, 501, forbiddenGET), // real data at ISS+1
	)
	if g.CensoredCount() != 0 {
		t.Error("simultaneous-open desync did not evade")
	}
	// The §5.1 confirmation: a request rebased to ISS is censored.
	g2 := deterministic(httpParamsAllOn())
	feed(g2,
		mk(true, syn, 100, 0, ""),
		mk(false, rst, 500, 0, ""),
		mk(false, syn, 500, 0, ""),
		mk(true, sa, 100, 501, ""),
		mk(false, ack, 501, 101, ""),
		mk(true, pa, 100, 501, forbiddenGET), // seq decremented by 1
	)
	if g2.CensoredCount() != 1 {
		t.Error("seq-minus-one confirmation did not restore censorship")
	}
}

func TestResyncOnInducedRst(t *testing.T) {
	// Trigger 3 (corrupt-ack SYN+ACK) re-syncs on the next client packet
	// — the induced RST with a garbage seq — desynchronizing the box.
	p := httpParamsAllOn()
	p.PReacquire = 0
	g := deterministic(p)
	feed(g,
		mk(true, syn, 100, 0, ""),
		mk(false, sa, 500, 0xbad, ""), // corrupt ack -> trigger 3
		mk(false, sa, 500, 101, ""),   // the real SYN+ACK
		mk(true, rst, 0xbad, 0, ""),   // induced RST (seq = bogus ack)
		mk(true, ack, 101, 501, ""),
		mk(true, pa, 101, 501, forbiddenGET),
	)
	if g.CensoredCount() != 0 {
		t.Error("induced-RST resync did not desynchronize the box")
	}
}

func TestCleanAckReacquisition(t *testing.T) {
	// Same as above but with re-acquisition on: the clean handshake ACK
	// restores synchronization (Strategy 4 vs Strategy 3).
	g := deterministic(httpParamsAllOn()) // PReacquire = 1
	feed(g,
		mk(true, syn, 100, 0, ""),
		mk(false, sa, 500, 0xbad, ""),
		mk(false, sa, 500, 101, ""),
		mk(true, rst, 0xbad, 0, ""),
		mk(true, ack, 101, 501, ""), // clean ACK: re-acquire
		mk(true, pa, 101, 501, forbiddenGET),
	)
	if g.CensoredCount() != 1 {
		t.Error("clean-ACK re-acquisition did not restore censorship")
	}
}

func TestPayloadAccountingBlocksReacquisition(t *testing.T) {
	// Strategy 5 mechanics: a payload on the valid SYN+ACK inflates the
	// box's server expectation (FTP box bug), so the clean ACK no longer
	// matches and re-acquisition is blocked.
	p := httpParamsAllOn()
	p.PayloadAccounting = true
	g := deterministic(p)
	feed(g,
		mk(true, syn, 100, 0, ""),
		mk(false, sa, 500, 0xbad, ""),
		mk(false, sa, 500, 101, "xxxx"), // payload-bearing valid SYN+ACK
		mk(true, rst, 0xbad, 0, ""),
		mk(true, ack, 101, 501, ""), // acks 501; box expects 505
		mk(true, pa, 101, 501, forbiddenGET),
	)
	if g.CensoredCount() != 0 {
		t.Error("payload accounting failed to block re-acquisition")
	}
}

func TestTrigger1ResyncOnCorruptSynAck(t *testing.T) {
	// Strategy 6 mechanics: FIN+load enters resync (trigger 1); the next
	// server SYN+ACK — with a corrupted ack — is the resync target, and
	// its garbage ack becomes the client expectation.
	g := deterministic(httpParamsAllOn())
	feed(g,
		mk(true, syn, 100, 0, ""),
		mk(false, fin, 500, 0, "junk"), // trigger 1
		mk(false, sa, 500, 0xbad, ""),  // resync target: adopts ack 0xbad
		mk(false, sa, 500, 101, ""),
		mk(true, rst, 0xbad, 0, ""),
		mk(true, ack, 101, 501, ""),
		mk(true, pa, 101, 501, forbiddenGET),
	)
	if g.CensoredCount() != 0 {
		t.Error("trigger-1 resync onto corrupt SYN+ACK did not desync")
	}
}

func TestNoReassemblySplitKeywordEvades(t *testing.T) {
	p := httpParamsAllOff()
	p.PNoReassembly = 1
	g := deterministic(p)
	req := forbiddenGET
	pkts := append(handshake(100, 500),
		mk(true, pa, 101, 501, req[:10]),
		mk(true, pa, 111, 501, req[10:]))
	feed(g, pkts...)
	if g.CensoredCount() != 0 {
		t.Error("a box without reassembly censored a split keyword")
	}
	// The reassembling box catches the same split.
	g2 := deterministic(httpParamsAllOff())
	pkts2 := append(handshake(100, 500),
		mk(true, pa, 101, 501, req[:10]),
		mk(true, pa, 111, 501, req[10:]))
	feed(g2, pkts2...)
	if g2.CensoredCount() != 1 {
		t.Error("a reassembling box missed a split keyword")
	}
}

func TestWindowSanityGiveUp(t *testing.T) {
	// An SMTP box (no reassembly) gives up on a flow whose SYN+ACK
	// advertises a tiny unscaled window (Strategy 8 / row 8 of Table 2).
	p := Params{Protocol: "smtp", PNoReassembly: 1}
	g := deterministic(p)
	tiny := mk(false, sa, 500, 101, "")
	tiny.TCP.Window = 10
	feed(g,
		mk(true, syn, 100, 0, ""),
		tiny,
		mk(true, ack, 101, 501, ""),
		mk(true, pa, 101, 501, "RCPT TO:<tibetalk@yahoo.com.cn>\r\n"),
	)
	if g.CensoredCount() != 0 {
		t.Error("SMTP box censored despite the tiny-window give-up")
	}
}

func TestPartialCommandLinePoisonsLineBasedBox(t *testing.T) {
	p := Params{Protocol: "smtp", PNoReassembly: 1}
	g := deterministic(p)
	pkts := append(handshake(100, 500),
		mk(true, pa, 101, 501, "HELO clie"), // split command
		mk(true, pa, 110, 501, "nt\r\n"),
		mk(true, pa, 114, 501, "RCPT TO:<tibetalk@yahoo.com.cn>\r\n"))
	feed(g, pkts...)
	if g.CensoredCount() != 0 {
		t.Error("SMTP box censored after an unparseable split command")
	}
}

func TestResidualCensorship(t *testing.T) {
	p := httpParamsAllOff()
	p.Residual = 90 * time.Second
	g := deterministic(p)
	pkts := append(handshake(100, 500), mk(true, pa, 101, 501, forbiddenGET))
	feed(g, pkts...)
	if g.CensoredCount() != 1 {
		t.Fatal("initial censorship did not fire")
	}
	// A brand-new flow to the same server IP:port, right away.
	fresh := []*packet.Packet{
		mk(true, syn, 9000, 0, ""),
		mk(false, sa, 7000, 9001, ""),
		mk(true, ack, 9001, 7001, ""),
	}
	for i, pk := range fresh {
		fresh[i].TCP.SrcPort, fresh[i].TCP.DstPort = pk.TCP.SrcPort, pk.TCP.DstPort
	}
	// Re-number ports so it is a different flow.
	for _, pk := range fresh {
		if pk.IP.Src == cli {
			pk.TCP.SrcPort = 41000
		} else {
			pk.TCP.DstPort = 41000
		}
	}
	var verdicts []netsim.Verdict
	for i, pk := range fresh {
		dir := netsim.ToServer
		if pk.IP.Src == srv {
			dir = netsim.ToClient
		}
		verdicts = append(verdicts, g.Process(pk, dir, time.Duration(i)*time.Millisecond))
	}
	if len(verdicts[2].InjectToClient) == 0 {
		t.Error("no residual tear-down right after the handshake")
	}
	// After the window, the same shape passes.
	later := []*packet.Packet{
		mk(true, syn, 9500, 0, ""),
		mk(false, sa, 7500, 9501, ""),
		mk(true, ack, 9501, 7501, ""),
	}
	for _, pk := range later {
		if pk.IP.Src == cli {
			pk.TCP.SrcPort = 42000
		} else {
			pk.TCP.DstPort = 42000
		}
	}
	ok := true
	for _, pk := range later {
		dir := netsim.ToServer
		if pk.IP.Src == srv {
			dir = netsim.ToClient
		}
		v := g.Process(pk, dir, 100*time.Second)
		if len(v.InjectToClient) > 0 {
			ok = false
		}
	}
	if !ok {
		t.Error("residual censorship outlived its 90s window")
	}
}

// residualProbe poisons the server at time 0 (expiry = 90s exactly) and
// then probes with a brand-new flow whose handshake-completing ACK arrives
// at probeAt. It reports whether the probe was residually censored.
func residualProbe(t *testing.T, probeAt time.Duration) bool {
	t.Helper()
	p := httpParamsAllOff()
	p.Residual = 90 * time.Second
	g := deterministic(p)
	for _, pk := range append(handshake(100, 500), mk(true, pa, 101, 501, forbiddenGET)) {
		dir := netsim.ToServer
		if pk.IP.Src == srv {
			dir = netsim.ToClient
		}
		g.Process(pk, dir, 0)
	}
	if g.CensoredCount() != 1 {
		t.Fatal("poisoning censorship did not fire")
	}
	probe := handshake(9000, 7000)
	for _, pk := range probe {
		if pk.IP.Src == cli {
			pk.TCP.SrcPort = 41000
		} else {
			pk.TCP.DstPort = 41000
		}
	}
	censored := false
	for _, pk := range probe {
		dir := netsim.ToServer
		if pk.IP.Src == srv {
			dir = netsim.ToClient
		}
		if v := g.Process(pk, dir, probeAt); len(v.InjectToClient) > 0 {
			censored = true
		}
	}
	return censored
}

// TestResidualExpiryBoundary pins the `<` vs `<=` edge: the residual window
// is inclusive of its 90th second — a handshake at exactly poison-time+90s
// is still torn down, and the first instant past it is not.
func TestResidualExpiryBoundary(t *testing.T) {
	if !residualProbe(t, 90*time.Second) {
		t.Error("handshake at exactly the 90s boundary escaped residual censorship")
	}
	if residualProbe(t, 90*time.Second+time.Nanosecond) {
		t.Error("handshake just past the 90s boundary was censored")
	}
}

// TestResidualMapBoundedGrowth drives censorship events against many
// distinct servers, spaced beyond the residual window, and checks the
// poisoned table does not accumulate expired entries a long evolve run
// would never revisit.
func TestResidualMapBoundedGrowth(t *testing.T) {
	p := httpParamsAllOff()
	p.Residual = 90 * time.Second
	g := deterministic(p)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		now := time.Duration(i) * 100 * time.Second // > 90s apart: all prior entries expired
		sport := uint16(8000 + i)                   // distinct server ip:port per round
		for _, pk := range append(handshake(100, 500), mk(true, pa, 101, 501, forbiddenGET)) {
			dir := netsim.ToServer
			if pk.IP.Src == cli {
				pk.TCP.DstPort = sport
			} else {
				pk.TCP.SrcPort = sport
				dir = netsim.ToClient
			}
			g.Process(pk, dir, now)
		}
	}
	if g.CensoredCount() != rounds {
		t.Fatalf("censored %d flows, want %d", g.CensoredCount(), rounds)
	}
	if got := g.Boxes[0].residual.Len(); got > 1 {
		t.Errorf("poisoned table holds %d entries after %d expired-and-gone servers, want <= 1", got, rounds)
	}
}

func TestCompositeGFWFansOutAndNeverDrops(t *testing.T) {
	g := New(censor.Default(), rand.New(rand.NewSource(3)))
	if len(g.Boxes) != 5 {
		t.Fatalf("GFW has %d boxes, want 5", len(g.Boxes))
	}
	v := g.Process(mk(true, syn, 100, 0, ""), netsim.ToServer, 0)
	if v.Drop {
		t.Error("the on-path GFW dropped a packet")
	}
}

func TestChecksumIgnoredByBoxes(t *testing.T) {
	// An insertion packet with a corrupted checksum is processed normally.
	g := deterministic(httpParamsAllOff())
	bad := mk(true, pa, 101, 501, forbiddenGET)
	bad.TCP.RawChecksum = true
	bad.TCP.Checksum = 0x1234
	pkts := append(handshake(100, 500), bad)
	feed(g, pkts...)
	if g.CensoredCount() != 1 {
		t.Error("the box validated checksums; real censors do not (§7)")
	}
}

func TestMissRateSampling(t *testing.T) {
	p := httpParamsAllOff()
	p.PMiss = 1 // always miss
	g := deterministic(p)
	pkts := append(handshake(100, 500), mk(true, pa, 101, 501, forbiddenGET))
	feed(g, pkts...)
	if g.CensoredCount() != 0 {
		t.Error("PMiss=1 box still censored")
	}
}

// synFrom is a client SYN from a distinct address per i, so no two i share
// a flow.
func synFrom(i int) *packet.Packet {
	p := packet.New(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), srv, 40000, 80)
	p.TCP.Flags = packet.FlagSYN
	p.TCP.Seq = uint32(i)
	return p
}

// TestFlowTableBounded fills the GFW's flow table past its 65,536-flow
// bound with flows no box ever retires. The table must stay within the
// bound, keep one entry per flow for all five boxes, and trim its oldest
// flows: the last SYN's flow is tracked, the first one's is gone.
func TestFlowTableBounded(t *testing.T) {
	const bound = 65536
	g := New(censor.Default(), rand.New(rand.NewSource(1)))
	for i := 0; i < bound+500; i++ {
		g.Process(synFrom(i), netsim.ToServer, 0)
	}
	if n := g.flows.Len(); n > bound || n < bound/2 {
		t.Errorf("flow table holds %d entries, want between %d and %d", n, bound/2, bound)
	}
	first, last := synFrom(0).Flow().Canonical(), synFrom(bound+499).Flow().Canonical()
	if g.flows.Get(first) != nil {
		t.Error("the oldest flow survived the trim")
	}
	if e := g.flows.Get(last); e == nil || e.live != 1<<len(g.Boxes)-1 {
		t.Error("the newest flow is not tracked by every box")
	}
}

// A keep-alive client that coalesces several requests into one segment used
// to evade the HTTP box entirely when only the *first* request was benign:
// the DPI examined one request per payload. Both inspection paths — the
// single-segment memoized-view path and the reassembled-stream path — must
// scan every pipelined request.
func TestCensorsPipelinedForbiddenRequest(t *testing.T) {
	const benign = "GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n"
	const forbidden = "GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"

	// Single segment carrying both requests (the memoized-view path).
	g := deterministic(httpParamsAllOff())
	pkts := append(handshake(100, 500), mk(true, pa, 101, 501, benign+forbidden))
	vs := feed(g, pkts...)
	if last := vs[len(vs)-1]; len(last.InjectToClient) == 0 {
		t.Error("pipelined forbidden request in one segment not censored")
	}
	if g.CensoredCount() != 1 {
		t.Errorf("Censored = %d, want 1", g.CensoredCount())
	}

	// The forbidden request arrives in a later segment: the reassembled
	// stream starts with the benign request, so only a per-request walk of
	// the stream sees it.
	g2 := deterministic(httpParamsAllOff())
	pkts2 := append(handshake(100, 500),
		mk(true, pa, 101, 501, benign),
		mk(true, pa, 101+uint32(len(benign)), 501, forbidden))
	vs2 := feed(g2, pkts2...)
	if last := vs2[len(vs2)-1]; len(last.InjectToClient) == 0 {
		t.Error("pipelined forbidden request in the reassembled stream not censored")
	}
	if g2.CensoredCount() != 1 {
		t.Errorf("reassembly path Censored = %d, want 1", g2.CensoredCount())
	}

	// All-benign pipelining stays uncensored.
	g3 := deterministic(httpParamsAllOff())
	feed(g3, append(handshake(100, 500), mk(true, pa, 101, 501, benign+benign))...)
	if g3.CensoredCount() != 0 {
		t.Error("censored an all-benign pipelined payload")
	}
}

// An endpoint that wraps its ephemeral-port counter reuses a 4-tuple whose
// old TCB is still tracked (most easily: the previous connection never
// completed, so the box never saw a tear-down). The stale TCB's sequence
// expectations belong to the dead connection; before the resync-on-reuse
// fix the box stayed desynchronized for the new connection's whole life and
// every forbidden request sailed through.
func TestTupleReuseResyncsStaleTCB(t *testing.T) {
	g := deterministic(httpParamsAllOff())
	feed(g,
		// Old connection: half-open (SYN only, never completed, never torn
		// down). The TCB expects the client stream at 101.
		mk(true, syn, 100, 0, ""),
		// New connection on the same 4-tuple, new ISN.
		mk(true, syn, 5000, 0, ""),
		mk(false, sa, 700, 5001, ""),
		mk(true, ack, 5001, 701, ""),
		mk(true, pa, 5001, 701, forbiddenGET),
	)
	if g.CensoredCount() != 1 {
		t.Errorf("Censored = %d, want 1: stale TCB left the box desynchronized on tuple reuse", g.CensoredCount())
	}

	// A retransmitted SYN (same ISN) is NOT a new connection: the TCB —
	// including mid-connection state like the client stream position —
	// must survive it untouched.
	g2 := deterministic(httpParamsAllOff())
	feed(g2,
		mk(true, syn, 100, 0, ""),
		mk(true, syn, 100, 0, ""), // retransmit
		mk(false, sa, 500, 101, ""),
		mk(true, ack, 101, 501, ""),
		mk(true, pa, 101, 501, forbiddenGET),
	)
	if g2.CensoredCount() != 1 {
		t.Errorf("retransmitted SYN disturbed the TCB: Censored = %d, want 1", g2.CensoredCount())
	}
}
