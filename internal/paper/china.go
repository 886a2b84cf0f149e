package paper

import (
	"fmt"
	"io"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/packet"
)

// --- §5.1 follow-ups (E7, E8, E9, E21) ---

// seqOffsetHook shifts the sequence number of every client data packet by
// delta (the paper's desynchronization-confirmation instrumentation).
func seqOffsetHook(delta int32) func(*eval.Rig) {
	return func(r *eval.Rig) {
		r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
			if len(p.TCP.Payload) > 0 {
				p.TCP.Seq += uint32(delta)
			}
			return []*packet.Packet{p}
		}
	}
}

// DesyncConfirmation reproduces the §5.1 experiment for Strategy 1: with
// the client's forbidden request decremented by 1, censorship returns
// roughly half the time (the resync-state entry rate); without the
// strategy, the decremented request is never censored.
func DesyncConfirmation(trials int) (withStrategy, withoutStrategy float64) {
	s1, _ := byNumber(1)
	censored := func(strategy *core.Strategy, seed int64) float64 {
		cfg := eval.Trial(eval.CountryChina, "http", strategy, seed)
		cfg.Hook = seqOffsetHook(-1)
		return float64(eval.RateStats(cfg, trials).Censored) / float64(trials)
	}
	return censored(s1, 5000), censored(nil, 6000)
}

func printDesync(w io.Writer, trials int) {
	header(w, "§5.1: desynchronization confirmation (seq-1)")
	with, without := DesyncConfirmation(sample(trials, 2))
	fmt.Fprintf(w, "censorship of seq-1 request WITH Strategy 1:    %.0f%% (paper: ~50%%)\n", 100*with)
	fmt.Fprintf(w, "censorship of seq-1 request WITHOUT strategy:   %.0f%% (paper: never)\n", 100*without)
}

// dropInducedRstHook makes the client swallow the RSTs its own stack emits
// (the §5.1 instrumentation separating Strategy 5 from Strategy 6).
func dropInducedRstHook(r *eval.Rig) {
	r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
		if p.TCP.Flags == packet.FlagRST {
			return nil
		}
		return []*packet.Packet{p}
	}
}

// InducedRstCriticality reproduces E8: dropping the induced RST kills
// Strategy 5 (the GFW re-syncs on that RST; measured over FTP, where the
// strategy peaks) but leaves Strategy 6 intact (it re-syncs on the
// corrupted SYN+ACK instead; measured over HTTP, where rule 1 is the only
// active trigger, matching the paper's "equally effective" finding).
func InducedRstCriticality(trials int) (s5Normal, s5Dropped, s6Normal, s6Dropped float64) {
	rate := func(num int, proto string, drop bool, seed int64) float64 {
		s, _ := byNumber(num)
		cfg := eval.Trial(eval.CountryChina, proto, s, seed)
		if drop {
			cfg.Hook = dropInducedRstHook
		}
		return eval.Rate(cfg, trials)
	}
	return rate(5, "ftp", false, 7000), rate(5, "ftp", true, 7100),
		rate(6, "http", false, 7200), rate(6, "http", true, 7300)
}

func printInducedRst(w io.Writer, trials int) {
	header(w, "§5.1: induced-RST criticality (Strategy 5 over FTP, 6 over HTTP)")
	s5n, s5d, s6n, s6d := InducedRstCriticality(sample(trials, 2))
	fmt.Fprintf(w, "Strategy 5: normal %.0f%%, client drops its RST %.0f%%  (RST critical)\n", 100*s5n, 100*s5d)
	fmt.Fprintf(w, "Strategy 6: normal %.0f%%, client drops its RST %.0f%%  (RST vestigial)\n", 100*s6n, 100*s6d)
}

// matchRstSeqHook records the last RST the client emitted and rebases the
// client's data packets onto its sequence number (E9: confirming Strategy 7
// re-syncs on the induced RST).
func matchRstSeqHook(r *eval.Rig) {
	var rstSeq uint32
	var haveRst bool
	r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
		if p.TCP.Flags == packet.FlagRST {
			rstSeq = p.TCP.Seq
			haveRst = true
		} else if len(p.TCP.Payload) > 0 && haveRst {
			p.TCP.Seq = rstSeq
		}
		return []*packet.Packet{p}
	}
}

// Strategy7ResyncTarget reproduces E9: adjusting the client's sequence
// numbers to the induced RST's restores censorship under Strategy 7,
// proving the GFW synchronized on that packet.
func Strategy7ResyncTarget(trials int) (censoredRate float64) {
	s7, _ := byNumber(7)
	cfg := eval.Trial(eval.CountryChina, "http", s7, 8000)
	cfg.Hook = matchRstSeqHook
	return float64(eval.RateStats(cfg, trials).Censored) / float64(trials)
}

func printS7Resync(w io.Writer, trials int) {
	header(w, "§5.1: Strategy 7 re-syncs on the induced RST")
	fmt.Fprintf(w, "censorship with client seq matched to the RST: %.0f%% (the GFW re-censors)\n",
		100*Strategy7ResyncTarget(sample(trials, 2)))
}

// OrderSensitivity reproduces §5.1's packet-order observation for
// Strategy 5: sending the corrupted-ack SYN+ACK first and the
// payload-bearing SYN+ACK second works (97% on FTP), while the reverse
// order is ineffective — the client then completes its handshake from the
// first (valid) SYN+ACK, never emits the induced RST the GFW must
// re-synchronize on, and the box re-acquires from the clean ACK.
func OrderSensitivity(trials int) (normal, reversed float64) {
	s5, _ := byNumber(5)
	// The reverse of Strategy 5: duplicate(payload copy, corrupt-ack copy).
	rev := core.MustParse(`[TCP:flags:SA]-duplicate(tamper{TCP:load:corrupt},tamper{TCP:ack:corrupt})-| \/ `)
	rate := func(st *core.Strategy, seed int64) float64 {
		return eval.Rate(eval.Trial(eval.CountryChina, "ftp", st, seed), trials)
	}
	return rate(s5, 6100), rate(rev, 6200)
}

func printOrder(w io.Writer, trials int) {
	header(w, "§5.1: Strategy 5 packet-order sensitivity (FTP)")
	normal, reversed := OrderSensitivity(sample(trials, 2))
	fmt.Fprintf(w, "corrupt-ack first, payload second: %3.0f%% (the published strategy)\n", 100*normal)
	fmt.Fprintf(w, "payload first, corrupt-ack second: %3.0f%% (paper: ineffective)\n", 100*reversed)
}
