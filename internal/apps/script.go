package apps

import (
	"bytes"
	"time"

	"geneva/internal/tcpstack"
)

// SendPoint schedules data to be sent once the peer's transcript has been
// received through offset Off. A non-zero Delay holds the send for that much
// virtual time after the offset is reached — how a keep-alive client spaces
// its follow-up requests across a long-lived connection instead of
// pipelining them back-to-back.
type SendPoint struct {
	Off   int
	Data  []byte
	Delay time.Duration
}

// Script is a deterministic application: it sends SendOnEstablish when the
// connection comes up, expects the peer to deliver exactly Expect, and sends
// each SendPoint's data once reception reaches its offset. The same type
// drives clients (Expect = the server's responses) and servers (Expect = the
// client's requests). It keeps no copy of what it receives: each chunk is
// checked against Expect at its offset as it arrives, and only the counts
// are kept.
type Script struct {
	SendOnEstablish []byte
	Expect          []byte
	SendAt          []SendPoint
	CloseAtEnd      bool
	// ExchangeSize, when non-zero, divides Expect into fixed-size exchanges
	// (a keep-alive session's per-request responses) so Served can report
	// partial progress: how many whole exchanges arrived intact before the
	// connection died.
	ExchangeSize int

	recv           int // bytes received, corrupted ones included
	okLen          int // length of the verified prefix (frozen at corruption)
	nextSend       int
	delayPending   bool
	established    bool
	reset          bool
	corrupted      bool
	establishedAt  time.Duration
	lastProgressAt time.Duration
}

// Clone returns a fresh, un-run copy of the script. Scripts.Lease is the
// program's way to copy a template; bench/'s replay still clones.
func (s *Script) Clone() *Script {
	return &Script{
		SendOnEstablish: s.SendOnEstablish,
		Expect:          s.Expect,
		SendAt:          s.SendAt,
		CloseAtEnd:      s.CloseAtEnd,
		ExchangeSize:    s.ExchangeSize,
	}
}

// Restart returns the script to its un-run state so it can drive another
// connection of the same transcript. Its only caller is bench/'s replay of
// the fleet cell; the program recycles scripts through Scripts, which
// copies a template over a spent script of any shape.
func (s *Script) Restart() {
	s.recv = 0
	s.okLen = 0
	s.nextSend = 0
	s.delayPending = false
	s.established = false
	s.reset = false
	s.corrupted = false
	s.establishedAt = 0
	s.lastProgressAt = 0
}

// Scripts is a freelist of spent scripts. A script that has not run is
// fully described by its template fields, so copying an un-run template
// over any spent script, whatever its shape or side, gives an un-run
// script: one freelist serves every transcript a harness runs. The zero
// value is empty and ready to use; it is not safe for concurrent use.
type Scripts struct{ free []*Script }

// Lease returns an un-run copy of tmpl, reusing a released script when
// there is one. tmpl must not have run; it is only read.
func (f *Scripts) Lease(tmpl *Script) *Script {
	var s *Script
	if n := len(f.free); n > 0 {
		s, f.free = f.free[n-1], f.free[:n-1]
	} else {
		s = new(Script)
	}
	*s = *tmpl
	return s
}

// Release hands spent scripts back for later leases. The caller must be
// sure nothing will call into them again: their connections can receive
// no further packet and fire no further timer.
func (f *Scripts) Release(ss ...*Script) { f.free = append(f.free, ss...) }

// OnEstablished implements tcpstack.App.
func (s *Script) OnEstablished(c *tcpstack.Conn) {
	s.established = true
	s.establishedAt = c.Now()
	s.lastProgressAt = s.establishedAt
	if len(s.SendOnEstablish) > 0 {
		c.Send(s.SendOnEstablish)
	}
	s.pump(c)
}

// OnData implements tcpstack.App.
func (s *Script) OnData(c *tcpstack.Conn, data []byte) {
	s.recv += len(data)
	// The transcript must match byte-for-byte: any divergence (a block
	// page, injected garbage, reordered bytes) marks the run corrupted, and
	// a corrupted run stays corrupted whatever arrives after it.
	if s.corrupted || s.recv > len(s.Expect) || !bytes.Equal(data, s.Expect[s.okLen:s.recv]) {
		s.corrupted = true
		return
	}
	s.okLen = s.recv
	s.lastProgressAt = c.Now()
	s.pump(c)
}

// pump sends every SendPoint whose offset has been reached. A SendPoint with
// a Delay is armed on the connection's application timer instead of sent
// inline, with the script as the timer's target and the point's index as
// its argument; later points wait behind it (the transcript stays strictly
// ordered).
func (s *Script) pump(c *tcpstack.Conn) {
	for !s.delayPending && s.nextSend < len(s.SendAt) && s.recv >= s.SendAt[s.nextSend].Off {
		sp := &s.SendAt[s.nextSend]
		if sp.Delay > 0 {
			s.delayPending = true
			c.After(sp.Delay, s, s.nextSend)
			return
		}
		c.Send(sp.Data)
		s.nextSend++
	}
	if s.CloseAtEnd && s.Succeeded() {
		c.Close()
	}
}

// OnTimer implements tcpstack.AppTimer: the delayed send of SendAt[idx] is
// due on c. The connection only fires a timer into the tenant it was armed
// on; the index check additionally drops the timer if the script itself
// was restarted for a new attempt.
func (s *Script) OnTimer(c *tcpstack.Conn, idx int) {
	if !s.delayPending || s.nextSend != idx {
		return
	}
	s.delayPending = false
	c.Send(s.SendAt[idx].Data)
	s.nextSend++
	s.pump(c)
}

// OnClose implements tcpstack.App.
func (s *Script) OnClose(c *tcpstack.Conn, reset bool) {
	s.reset = s.reset || reset
}

// Established reports whether the handshake completed.
func (s *Script) Established() bool { return s.established }

// Corrupted reports whether received data diverged from the transcript.
func (s *Script) Corrupted() bool { return s.corrupted }

// Reset reports whether the connection was torn down abortively.
func (s *Script) Reset() bool { return s.reset }

// Succeeded reports whether the full expected transcript arrived intact.
// For a client script it is the paper's §4.2 success criterion: the
// connection was not torn down before the correct, unaltered data arrived.
func (s *Script) Succeeded() bool {
	return !s.corrupted && s.recv == len(s.Expect)
}

// Served reports how many whole exchanges of the transcript arrived intact:
// okLen/ExchangeSize for a keep-alive script, or 1/0 (complete or not) for a
// single-exchange script. Corrupted bytes never count — okLen froze at the
// last verified prefix.
func (s *Script) Served() int {
	if s.ExchangeSize > 0 {
		return s.okLen / s.ExchangeSize
	}
	if s.Succeeded() {
		return 1
	}
	return 0
}

// EstablishedAt returns the virtual time the handshake completed (zero, and
// meaningless, unless Established).
func (s *Script) EstablishedAt() time.Duration { return s.establishedAt }

// LastProgressAt returns the virtual time the transcript last advanced — the
// moment the client last saw working service. Equal to EstablishedAt until
// the first verified byte arrives.
func (s *Script) LastProgressAt() time.Duration { return s.lastProgressAt }
