package tcpstack

import (
	"time"

	"geneva/internal/packet"
)

const (
	// initialRTO is the first retransmission timeout: 200 ms of virtual
	// time, 10× the default simulated RTT. It doubles on every consecutive
	// unacknowledged retransmission.
	initialRTO = 200 * time.Millisecond
	// maxRetries bounds consecutive retransmissions without forward
	// progress; on exhaustion the connection aborts cleanly (OnClose with
	// reset=false).
	maxRetries = 6
)

// rtxSeg is one in-flight sequence-consuming segment awaiting
// acknowledgment.
type rtxSeg struct {
	end uint32         // sequence number just past this segment's payload/flag
	pkt *packet.Packet // pristine copy, cloned before any Outbound tampering
}

// trackRtx remembers a transmitted segment for possible retransmission.
// The copy is taken before the Outbound hook runs, so a retransmission
// re-enters the Geneva engine exactly like a kernel retransmit re-enters
// NFQueue on a real deployment — retransmitted server payloads hitting GFW
// resync triggers is live experiment space (§5), not an artifact.
func (c *Conn) trackRtx(p *packet.Packet, end uint32) {
	if !c.ep.Retransmit || c.closed || c.ep.net == nil {
		return
	}
	c.rtxQ = append(c.rtxQ, rtxSeg{end: end, pkt: p.ClonePooled()})
	if len(c.rtxQ) == 1 {
		c.rtxRetries = 0
		c.armRtx(initialRTO)
	}
}

// armRtx schedules a fresh timer, superseding any outstanding one (stale
// generations are ignored when they fire).
func (c *Conn) armRtx(d time.Duration) {
	c.rtxGen++
	c.rtxRTO = d
	c.ep.net.AfterTimer(d, (*rtxTimer)(c), c.rtxGen)
}

// rtxTimer is a Conn as the target of its retransmission timer's events;
// the argument is the generation the timer was armed at.
type rtxTimer Conn

func (t *rtxTimer) Fire(gen uint64) { (*Conn)(t).onRtxTimer(gen) }

func (c *Conn) disarmRtx() { c.rtxGen++ }

// ackRtx discards fully acknowledged segments (sndUna has passed their
// end) and, on forward progress, resets the backoff and rearms for
// whatever is still outstanding.
func (c *Conn) ackRtx() {
	if len(c.rtxQ) == 0 {
		return
	}
	una := c.sndUna
	kept := c.rtxQ[:0]
	progress := false
	for _, s := range c.rtxQ {
		if seqLEQ(s.end, una) {
			progress = true
			packet.Put(s.pkt) // our private clone; nobody else holds it
			continue
		}
		kept = append(kept, s)
	}
	// Clear the vacated tail so the stale *Packet pointers don't pin (or
	// double-recycle) segments the compaction shifted down.
	tail := c.rtxQ[len(kept):]
	for i := range tail {
		tail[i] = rtxSeg{}
	}
	c.rtxQ = kept
	if !progress {
		return
	}
	c.rtxRetries = 0
	if len(c.rtxQ) == 0 {
		c.disarmRtx()
	} else {
		c.armRtx(initialRTO)
	}
}

// onRtxTimer fires at RTO expiry: retransmit the earliest unacknowledged
// segment with doubled timeout, or give up cleanly once the retry budget is
// spent. Giving up is what turns a blackholed connection into a bounded,
// observable failure instead of an eternal hang.
func (c *Conn) onRtxTimer(gen uint64) {
	if gen != c.rtxGen || c.closed || len(c.rtxQ) == 0 {
		return
	}
	if c.rtxRetries >= maxRetries {
		mRtxGiveUp.Inc()
		c.releaseRtx()
		c.disarmRtx()
		c.finish(false)
		return
	}
	c.rtxRetries++
	mRetransmits.Inc()
	c.ep.transmit(c.rtxQ[0].pkt.ClonePooled())
	c.armRtx(c.rtxRTO * 2)
}

// releaseRtx returns every queued segment clone to the packet pool.
func (c *Conn) releaseRtx() {
	for i := range c.rtxQ {
		packet.Put(c.rtxQ[i].pkt)
		c.rtxQ[i] = rtxSeg{}
	}
	c.rtxQ = nil
}
