package eval

import (
	"bytes"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// Failure causes distinguished by ClassifyFailure. The differential matrix
// (paper.Differential, EXPERIMENTS.md) exists to show these apart: the
// same strategy can fail against two censors for entirely different
// mechanical reasons, which is the evidence that the models are different
// machines, not one censor with different blocklists.
const (
	CauseEvaded    = "evaded"             // the trial succeeded
	CauseHijacked  = "hijacked"           // in-path MITM dropped the request and answered with a page (Kazakhstan)
	CauseForgedDNS = "forged-dns"         // injected forged DNS response (TMC)
	Cause302       = "injected-302"       // injected HTTP redirect (Vodafone)
	CauseBlockpage = "injected-blockpage" // injected HTTP block page (Airtel)
	CauseRST       = "injected-rst"       // injected RST tear-down (GFW, TMC)
	CauseBlackhole = "blackholed"         // silently dropped in-path (Iran, Jio)
	CauseBroken    = "broken"             // failed with no censor action: the strategy broke the connection itself
)

// ClassifyFailure reduces a traced trial to its failure cause: what the
// censor mechanically did that made the connection fail. The verdict comes
// from the packet evidence alone (injected packet shapes, in-path drops),
// never from censor notes, so a censor cannot claim an outcome its packets
// don't show. A hijack is an in-path drop beside an injected HTTP page.
func ClassifyFailure(res Result) string {
	if res.Success {
		return CauseEvaded
	}
	if res.CensorEvents == 0 || res.Trace == nil {
		return CauseBroken
	}
	var saw302, sawPage, sawDNS, sawRST, sawDrop bool
	for _, e := range res.Trace.Entries {
		switch e.Event {
		case netsim.EventInjected:
			p := e.Pkt
			switch {
			case bytes.HasPrefix(p.TCP.Payload, []byte("HTTP/1.1 302")):
				saw302 = true
			case bytes.HasPrefix(p.TCP.Payload, []byte("HTTP/1.1 ")):
				sawPage = true
			case p.TCP.SrcPort == 53 && len(p.TCP.Payload) > 0:
				sawDNS = true
			case p.TCP.Flags&packet.FlagRST != 0:
				sawRST = true
			}
		case netsim.EventDropped:
			sawDrop = true
		}
	}
	switch {
	case sawDrop && sawPage:
		return CauseHijacked
	case sawDNS:
		return CauseForgedDNS
	case saw302:
		return Cause302
	case sawPage:
		return CauseBlockpage
	case sawRST:
		return CauseRST
	case sawDrop:
		return CauseBlackhole
	}
	return CauseBroken
}
