// Package kazakh models Kazakhstan's in-path HTTP censorship (§5.3): a
// man-in-the-middle DPI engine on port 80 that monitors connections for
// patterns resembling a normal HTTP client handshake and gives up on any
// connection that violates its model.
//
// Violations (each defeats censorship 100% of the time in the paper):
//   - three or more back-to-back server handshake packets each carrying a
//     payload, regardless of payload size (Strategy 9);
//   - two server handshake packets whose payloads are well-formed HTTP GET
//     prefixes (at least "GET / HTTP1."): the censor concludes the server
//     is actually the client (Strategy 10);
//   - any handshake packet whose TCP flags contain none of
//     FIN/RST/SYN/ACK (Strategy 11);
//   - a forbidden request the censor cannot see whole: it does not
//     reassemble segments (Strategy 8).
//
// On censoring, the middlebox hijacks the flow: for ~15 seconds no client
// packet (including the forbidden request) reaches the server, and a
// FIN+PSH+ACK block page is injected to the client.
//
// The package also reproduces the paper's probing observations: content
// injected from the server before the connection is established is
// processed only from the *second* request, and after a simultaneous open
// the censor's client/server roles are swapped.
package kazakh

import (
	"math/rand"
	"regexp"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/packet"
)

var (
	mProbeResponses = obs.NewCounter("censor.kazakh.probe_responses")
	mIgnoredFlows   = obs.NewCounter("censor.kazakh.flows_ignored")
)

// hijackDuration is how long the MITM intercepts the flow after censoring.
const hijackDuration = 15 * time.Second

// getPrefix matches a payload that is a well-formed benign HTTP GET prefix
// reaching at least through "HTTP1." (the paper's observed minimum; both
// "HTTP/1." and the Geneva-notation "HTTP1." are accepted).
var getPrefix = regexp.MustCompile(`^GET /\S* HTTP/?1\.`)

// flowState is one flow's entry in the censor's flow table; its fields are
// ordered to pack.
type flowState struct {
	serverGets       [][]byte
	hijackUntil      time.Duration
	serverPayloadRun int
	clientISN        uint32 // the tracked connection's client SYN sequence number
	sawSYN           bool
	handshakeDone    bool
	ignore           bool
	rolesSwapped     bool
	hijacked         bool
}

// Kazakh is the Kazakhstan middlebox.
type Kazakh struct {
	Block censor.Blocklist
	// Censored counts block-page injections against real clients.
	Censored int
	// ProbeResponses counts censorship responses elicited by
	// server-originated probes (§5.3's follow-up experiments).
	ProbeResponses int

	flows censor.FlowTable[flowState]
}

// New builds the censor (deterministic; rng accepted for symmetry).
func New(bl censor.Blocklist, _ *rand.Rand) *Kazakh {
	return &Kazakh{Block: bl}
}

// Name implements netsim.Middlebox.
func (k *Kazakh) Name() string { return "Kazakhstan" }

// Process implements netsim.Middlebox.
func (k *Kazakh) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	// Only HTTP on its default port is censored (the HTTPS MITM is
	// defunct, §5.3).
	port := pkt.TCP.DstPort
	if dir == netsim.ToClient {
		port = pkt.TCP.SrcPort
	}
	if port != 80 {
		return netsim.Verdict{}
	}
	key := pkt.Flow().Canonical()
	st := k.flows.Get(key)
	if st == nil {
		st, _ = k.flows.Add(key)
		*st = flowState{}
	}

	// Active hijack: the MITM intercepts the stream.
	if st.hijacked && now < st.hijackUntil && dir == netsim.ToServer {
		return netsim.Verdict{Drop: true, Note: "intercepted (MITM)"}
	}

	// 4-tuple reuse: a client SYN with a new ISN on a tracked tuple is a
	// new connection (an endpoint churning through reconnects wraps its
	// ephemeral ports), so the previous tenant's verdicts — an ignored or
	// role-swapped flow — must not carry over. A retransmitted SYN (same
	// ISN) is the same connection and leaves the state alone.
	if dir == netsim.ToServer && pkt.TCP.Flags == packet.FlagSYN {
		if st.sawSYN && pkt.TCP.Seq != st.clientISN {
			*st = flowState{}
		}
		st.sawSYN, st.clientISN = true, pkt.TCP.Seq
	}

	if st.ignore {
		return netsim.Verdict{}
	}

	// Handshake-pattern monitoring.
	if !st.handshakeDone {
		if pkt.TCP.Flags&(packet.FlagFIN|packet.FlagRST|packet.FlagSYN|packet.FlagACK) == 0 {
			// Strategy 11: a packet violating normal TCP flag patterns.
			st.ignore = true
			mIgnoredFlows.Inc()
			return netsim.Verdict{Note: "abnormal flags: connection ignored"}
		}
		if dir == netsim.ToClient {
			if pkt.TCP.Flags == packet.FlagSYN {
				// Simultaneous open observed: the censor's notion of
				// client and server flips.
				st.rolesSwapped = true
			}
			if len(pkt.TCP.Payload) > 0 {
				st.serverPayloadRun++
				if getPrefix.Match(pkt.TCP.Payload) {
					st.serverGets = append(st.serverGets, append([]byte(nil), pkt.TCP.Payload...))
					// After a simultaneous open the censor has already
					// broken out of its handshake state: a single
					// request is processed (the paper's second probing
					// method).
					if st.rolesSwapped {
						return k.processServerRequest(st, st.serverGets[len(st.serverGets)-1], pkt)
					}
				}
				if st.serverPayloadRun >= 3 {
					// Strategy 9: three back-to-back payloads from the
					// server during the handshake.
					st.ignore = true
					mIgnoredFlows.Inc()
					return netsim.Verdict{Note: "server payloads during handshake: connection ignored"}
				}
				if len(st.serverGets) >= 2 {
					// Strategy 10 / probing: the first request breaks
					// the censor out of its handshake state; the second
					// is processed.
					return k.processServerRequest(st, st.serverGets[1], pkt)
				}
			} else {
				// A payload-less server packet breaks the run: the
				// paper found the three payloads must be back-to-back.
				st.serverPayloadRun = 0
			}
			return netsim.Verdict{}
		}
		// Client side: the first client payload ends the handshake phase.
		if len(pkt.TCP.Payload) > 0 {
			st.handshakeDone = true
		}
	}

	// Post-handshake inspection.
	if st.rolesSwapped && dir == netsim.ToClient && len(pkt.TCP.Payload) > 0 {
		// After a simultaneous open the censor is no longer sure who the
		// client is, so requests from the *server* side are inspected
		// too (the paper's second probing method). The real client's
		// requests below are still checked — simultaneous open alone
		// does not defeat this censor (no sim-open strategy appears in
		// the paper's Kazakhstan results).
		return k.processServerRequest(st, pkt.TCP.Payload, pkt)
	}
	if dir == netsim.ToServer && len(pkt.TCP.Payload) > 0 {
		// No reassembly, so a segmented request is never recognized
		// (Strategy 8); pipelined requests are each matched.
		if host, matched := k.Block.ForbiddenHost(pkt); matched {
			// Censor: hijack the flow and inject the block page.
			k.Censored++
			st.hijacked = true
			st.hijackUntil = now + hijackDuration
			srvFlow := pkt.Flow().Reverse()
			page := censor.BlockPage(srvFlow,
				pkt.TCP.Ack, pkt.TCP.Seq+uint32(len(pkt.TCP.Payload)),
				"<html><body>This resource is blocked in your region.</body></html>")
			return netsim.Verdict{
				Drop:           true,
				Note:           "blocked Host " + host + "; flow hijacked",
				InjectToClient: []*packet.Packet{page},
			}
		}
	}
	return netsim.Verdict{}
}

// processServerRequest handles a request observed from the server side of a
// connection (probing, Strategy 10). A forbidden request elicits a
// censorship response toward the sender; a benign one convinces the censor
// the server is the client, and the connection is ignored thereafter.
func (k *Kazakh) processServerRequest(st *flowState, payload []byte, pkt *packet.Packet) netsim.Verdict {
	host, hok := packet.ParseHTTPHostHeader(payload)
	target, tok := packet.ParseHTTPRequestTarget(payload)
	if (hok && k.Block.MatchDomain(host)) || (tok && k.Block.MatchKeyword(target)) {
		k.ProbeResponses++
		mProbeResponses.Inc()
		st.ignore = true
		mIgnoredFlows.Inc()
		flow := pkt.Flow().Reverse()
		page := censor.BlockPage(flow, pkt.TCP.Ack, pkt.TCP.Seq+uint32(len(pkt.TCP.Payload)),
			"<html><body>This resource is blocked in your region.</body></html>")
		return netsim.Verdict{
			Note: "forbidden probe from server censored",
			// The "client" from the censor's (confused) perspective is
			// the probing server.
			InjectToServer: []*packet.Packet{page},
		}
	}
	st.ignore = true
	mIgnoredFlows.Inc()
	return netsim.Verdict{Note: "benign GET from server: roles confused, connection ignored"}
}

// CensoredCount returns the number of censorship events against real
// clients (eval harness interface).
func (k *Kazakh) CensoredCount() int { return k.Censored }
