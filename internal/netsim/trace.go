package netsim

import (
	"fmt"
	"strings"
	"time"

	"geneva/internal/obs"
	"geneva/internal/packet"
)

// Event is what happened to a packet at one trace entry. The first six
// kinds are fates: each packet copy the network accepts ends in exactly
// one of them. The last three are side events.
type Event uint8

// Event kinds.
const (
	EventDelivered     Event = iota + 1 // reached its endpoint
	EventDropped                        // dropped in-path by a middlebox
	EventExpiredBefore                  // TTL ran out before the censor hop
	EventExpiredAfter                   // TTL ran out between the censor hop and the receiver
	EventNoRoute                        // addressed to no attached client
	EventLost                           // lost to an impairment
	EventDuplicated                     // copied by an impairment; the copy has its own fate
	EventInjected                       // fabricated by a middlebox; its fate follows
	EventCensor                         // a middlebox's note on the packet, in Note
)

// events describes each kind once: its name, the counter it bumps (nil
// for none), whether it is a fate, and the mark a waterfall puts after a
// fate's packet line.
var events = [...]struct {
	name    string
	counter *obs.Counter
	fate    bool
	mark    string
}{
	EventDelivered:     {"delivered", mDelivered, true, ""},
	EventDropped:       {"dropped in-path", mDroppedInPath, true, " [dropped]"},
	EventExpiredBefore: {"expired before censor", mExpiredTTL, true, " [expired]"},
	EventExpiredAfter:  {"expired after censor", mExpiredTTL, true, " [expired]"},
	EventNoRoute:       {"no route to client", mNoRoute, true, " [no route]"},
	EventLost:          {"lost (impairment)", mLost, true, " [lost]"},
	EventDuplicated:    {"duplicated (impairment)", mDuplicated, false, ""},
	EventInjected:      {"injected", mInjected, false, ""},
	EventCensor:        {"censor note", nil, false, ""},
}

func (e Event) String() string { return events[e].name }

// fate reports whether e ends a packet copy's journey.
func (e Event) fate() bool { return events[e].fate }

// TraceEntry is one recorded packet event.
type TraceEntry struct {
	Time  time.Duration
	Dir   Direction
	Pkt   *packet.Packet
	Event Event
	// Note is a middlebox's own text on an EventCensor entry.
	Note string
	// by names the middlebox behind an EventCensor or EventInjected entry.
	by string
}

// Trace records packet events for analysis and for rendering the paper's
// waterfall diagrams (Figures 1 and 2).
type Trace struct {
	Entries []TraceEntry
}

// add appends e with a clone of its packet.
func (t *Trace) add(e TraceEntry) {
	e.Pkt = e.Pkt.Clone()
	t.Entries = append(t.Entries, e)
}

// Delivered returns the entries that were actually delivered to an endpoint.
func (t *Trace) Delivered() []TraceEntry {
	var out []TraceEntry
	for _, e := range t.Entries {
		if e.Event == EventDelivered {
			out = append(out, e)
		}
	}
	return out
}

// label renders a packet in the waterfall notation the paper uses, e.g.
// "SYN/ACK" or "SYN (w/ load)".
func label(e TraceEntry) string {
	fl := packet.FlagsString(e.Pkt.TCP.Flags)
	name := ""
	switch fl {
	case "":
		name = "(no flags)"
	case "S":
		name = "SYN"
	case "SA":
		name = "SYN/ACK"
	case "A":
		name = "ACK"
	case "R":
		name = "RST"
	case "RA":
		name = "RST/ACK"
	case "F":
		name = "FIN"
	case "PA":
		name = "PSH/ACK"
	case "FPA":
		name = "FIN/PSH/ACK"
	default:
		name = strings.Join(strings.Split(fl, ""), "/")
	}
	if len(e.Pkt.TCP.Payload) > 0 && fl != "PA" && fl != "FPA" {
		name += " (w/ load)"
	}
	return name
}

// Waterfall renders the trace as a two-column client/server diagram in the
// style of the paper's Figures 1 and 2: one line per packet fate, marked
// unless the packet was delivered, and one starred line per censor note.
// Duplications and injections get no line of their own; the copies they
// make do, at their fates.
func (t *Trace) Waterfall(title string) string {
	var b strings.Builder
	const width = 46
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-*s\n", width, center("Client                Server", width))
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", width))
	for _, e := range t.Entries {
		if e.Event == EventCensor {
			fmt.Fprintf(&b, "      * %s: %s\n", e.by, e.Note)
			continue
		}
		if !e.Event.fate() {
			continue
		}
		l := label(e)
		mark := events[e.Event].mark
		if e.Dir == ToServer {
			fmt.Fprintf(&b, "  %s %s>%s\n", l, strings.Repeat("-", max(2, width-8-len(l))), mark)
		} else {
			fmt.Fprintf(&b, "  <%s %s%s\n", strings.Repeat("-", max(2, width-8-len(l))), l, mark)
		}
	}
	return b.String()
}

func center(s string, w int) string {
	if len(s) >= w {
		return s
	}
	pad := (w - len(s)) / 2
	return strings.Repeat(" ", pad) + s
}
