package apps

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"geneva/internal/allocs"
	"geneva/internal/netsim"
	"geneva/internal/race"
	"geneva/internal/tcpstack"
)

// observe renders everything a script shows through its exported fields
// and accessors, so two scripts compare as text.
func observe(s *Script) string {
	return fmt.Sprintf("send=%q expect=%q at=%v close=%v exch=%d | est=%v corrupt=%v reset=%v ok=%v served=%d estAt=%v lastAt=%v",
		s.SendOnEstablish, s.Expect, s.SendAt, s.CloseAtEnd, s.ExchangeSize,
		s.Established(), s.Corrupted(), s.Reset(), s.Succeeded(), s.Served(), s.EstablishedAt(), s.LastProgressAt())
}

// wire connects a client and a server endpoint for sess on a clean
// network; the server runs server for its one connection.
func wire(sess *Session, server *Script) (*tcpstack.Endpoint, *netsim.Network) {
	ce := tcpstack.NewEndpoint(clientAddr, tcpstack.DefaultClient, rand.New(rand.NewSource(1)))
	se := tcpstack.NewEndpoint(serverAddr, tcpstack.DefaultServer, rand.New(rand.NewSource(2)))
	se.NewServerApp = func(*tcpstack.Conn) tcpstack.App { return server }
	se.Listen(sess.Port)
	n := netsim.New(ce, se)
	ce.Attach(n)
	se.Attach(n)
	return ce, n
}

// runScripts runs one clean connection of sess between client and server.
func runScripts(sess *Session, client, server *Script) {
	ce, n := wire(sess, server)
	ce.Connect(serverAddr, sess.Port, client)
	n.Run(0)
}

// spentScripts returns three scripts in the states a harness releases:
// a corrupted client, a keep-alive client whose delayed follow-up request
// is still pending, and a server that served its transcript.
func spentScripts(t *testing.T) map[string]*Script {
	t.Helper()
	corrupted := HTTPQuerySession("ultrasurf").NewClient()
	corrupted.OnData(nil, []byte("HTTP/1.1 403 Forbidden\r\n\r\n"))

	ka := HTTPQuerySession("kittens").KeepAlive(3, time.Second)
	pending := ka.NewClient()
	ce, n := wire(ka, ka.Server().Clone())
	ce.Connect(serverAddr, ka.Port, pending)
	for i := 0; i < 1000 && !pending.delayPending; i++ {
		n.Run(1)
	}
	if !pending.delayPending || n.Quiet() {
		t.Fatal("the keep-alive client never armed its delayed send")
	}

	dns := DNSSession("example.com")
	server := dns.Server().Clone()
	runScripts(dns, dns.Client().Clone(), server)
	if !server.Succeeded() {
		t.Fatal("the DNS server script did not serve its transcript")
	}
	if !corrupted.Corrupted() || pending.Served() != 1 {
		t.Fatal("the spent scripts are not in the states under test")
	}
	return map[string]*Script{"corrupted-client": corrupted, "pending-keepalive-client": pending, "server": server}
}

// TestScriptsLeaseMatchesClone checks that a lease over a spent script of
// any shape or side is observably the template's Clone, before and after a
// full run, and that leasing never writes to the template.
func TestScriptsLeaseMatchesClone(t *testing.T) {
	templates := []struct {
		name   string
		sess   *Session
		client bool
	}{
		{"http-client", HTTPQuerySession("kittens"), true},
		{"keepalive-client", HTTPQuerySession("kittens").KeepAlive(3, time.Millisecond), true},
		{"ftp-server", FTPSession("ultrasurf"), false},
		{"smtp-client", SMTPSession("tibetalk@yahoo.com.cn"), true},
	}
	for _, tc := range templates {
		tmpl := tc.sess.Server()
		if tc.client {
			tmpl = tc.sess.Client()
		}
		before := *tmpl
		for spentName, spent := range spentScripts(t) {
			t.Run(tc.name+"/over-"+spentName, func(t *testing.T) {
				var free Scripts
				free.Release(spent)
				got, want := free.Lease(tmpl), tmpl.Clone()
				if got != spent {
					t.Fatal("Lease did not reuse the released script")
				}
				if g, w := observe(got), observe(want); g != w {
					t.Fatalf("leased script differs from a clone\nleased: %s\nclone:  %s", g, w)
				}
				if tc.client {
					runScripts(tc.sess, got, tc.sess.Server().Clone())
					runScripts(tc.sess, want, tc.sess.Server().Clone())
				} else {
					runScripts(tc.sess, tc.sess.Client().Clone(), got)
					runScripts(tc.sess, tc.sess.Client().Clone(), want)
				}
				if !want.Succeeded() {
					t.Fatal("the clone failed a clean run")
				}
				if g, w := observe(got), observe(want); g != w {
					t.Fatalf("leased script ran differently from a clone\nleased: %s\nclone:  %s", g, w)
				}
				if !reflect.DeepEqual(*tmpl, before) {
					t.Fatal("leasing or running a copy wrote to the template")
				}
			})
		}
	}
}

// TestAllocBudgetScriptsLease pins a lease from a non-empty freelist at
// zero allocations: it copies the template over a released script.
func TestAllocBudgetScriptsLease(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	tmpl := HTTPQuerySession("kittens").Client()
	var free Scripts
	if mean := allocs.Mean(10, 1000, func() { free.Release(free.Lease(tmpl)) }); mean > 0 {
		t.Errorf("a lease from a non-empty freelist allocates %.3f objects/op, budget is 0", mean)
	}
}

// keepAliveRig is a client endpoint wired to a server endpoint that serves
// each connection of a session with a copy of its server template leased
// from free. Both endpoints recycle finished connections, and the network
// recycles packets.
type keepAliveRig struct {
	client *tcpstack.Endpoint
	net    *netsim.Network
	free   Scripts
	served []*Script // server scripts leased since the last release
}

func newKeepAliveRig(sess *Session) *keepAliveRig {
	r := &keepAliveRig{}
	r.client = tcpstack.NewEndpoint(clientAddr, tcpstack.DefaultClient, rand.New(rand.NewSource(1)))
	se := tcpstack.NewEndpoint(serverAddr, tcpstack.DefaultServer, rand.New(rand.NewSource(2)))
	tmpl := *sess.Server()
	tmpl.CloseAtEnd = true
	se.NewServerApp = func(*tcpstack.Conn) tcpstack.App {
		s := r.free.Lease(&tmpl)
		r.served = append(r.served, s)
		return s
	}
	se.Listen(sess.Port)
	r.client.ReleaseClosed, se.ReleaseClosed = true, true
	r.net = netsim.New(r.client, se)
	r.net.RecyclePackets = true
	r.client.Attach(r.net)
	se.Attach(r.net)
	return r
}

// TestReleasedScriptTimerSkipsNewConn: a script whose delayed send is
// pending is released and re-leased onto a fresh connection that reuses the
// old one's struct, and so starts from the same timer generation. The old
// timer must send nothing on the new connection: the new one's first
// delayed send still waits its full gap.
func TestReleasedScriptTimerSkipsNewConn(t *testing.T) {
	const gap = time.Second
	ka := HTTPQuerySession("kittens").KeepAlive(3, gap)
	r := newKeepAliveRig(ka)
	ce, n, free := r.client, r.net, &r.free
	s := free.Lease(ka.Client())
	old := ce.Connect(serverAddr, ka.Port, s)
	for i := 0; i < 1000 && !s.delayPending; i++ {
		n.Run(1)
	}
	if !s.delayPending {
		t.Fatal("the keep-alive client never armed its delayed send")
	}
	// Drop the old connection without finishing it: its struct goes back on
	// the freelist with its timer generation unchanged.
	ce.Reset(clientAddr, tcpstack.DefaultClient, rand.New(rand.NewSource(3)))
	ce.ReleaseClosed = true
	ce.Attach(n)
	free.Release(s)
	if free.Lease(ka.Client()) != s {
		t.Fatal("the lease did not reuse the released script")
	}
	if ce.Connect(serverAddr, ka.Port, s) != old {
		t.Fatal("the fresh connection did not reuse the old one's struct")
	}
	for i := 0; i < 1000 && !s.delayPending; i++ {
		n.Run(1)
	}
	if !s.delayPending {
		t.Fatal("the re-leased client never armed its delayed send")
	}
	armed := n.Clock.Now()
	for s.nextSend == 0 && !n.Quiet() {
		n.Run(1)
	}
	if sent := n.Clock.Now(); s.nextSend != 1 || sent != armed+gap {
		t.Fatalf("the new connection's first delayed send went at %v (nextSend %d), want %v", sent, s.nextSend, armed+gap)
	}
	n.Run(0)
	if !s.Succeeded() {
		t.Fatalf("the re-leased client did not finish its transcript: served %d", s.Served())
	}
}

// TestRestartedScriptIgnoresOldTimer: a script restarted for a new attempt
// while its old connection is still live, with a delayed send pending on
// it, must not send when that old timer fires — on either connection —
// and runs its new attempt to the end.
func TestRestartedScriptIgnoresOldTimer(t *testing.T) {
	ka := HTTPQuerySession("kittens").KeepAlive(3, time.Second)
	r := newKeepAliveRig(ka)
	s := ka.NewClient()
	s.CloseAtEnd = true
	r.client.Connect(serverAddr, ka.Port, s)
	for i := 0; i < 1000 && !s.delayPending; i++ {
		r.net.Run(1)
	}
	if !s.delayPending {
		t.Fatal("the keep-alive client never armed its delayed send")
	}
	s.Restart()
	r.net.Run(0) // the old timer fires into the restarted script
	if len(r.served) != 1 || r.served[0].recv != len(ka.Client().SendOnEstablish) {
		t.Fatalf("the old connection's server received %d bytes, want only the first request", r.served[0].recv)
	}
	r.client.Connect(serverAddr, ka.Port, s)
	r.net.Run(0)
	if !s.Succeeded() {
		t.Fatalf("the restarted script's new attempt did not finish: served %d", s.Served())
	}
}

// TestAllocBudgetDelayedSend pins a keep-alive script's delayed sends at
// zero allocations: the connection's application timer targets the script
// itself with the send's index, so arming and firing build no closure. The
// whole exchange runs warm (recycled connections, packets and scripts), and
// its allocations are counted per delayed send.
func TestAllocBudgetDelayedSend(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	const requests = 4
	ka := HTTPQuerySession("kittens").KeepAlive(requests, time.Second)
	tmpl := *ka.Client()
	tmpl.CloseAtEnd = true
	r := newKeepAliveRig(ka)
	mean := allocs.Mean(10, 200, func() {
		s := r.free.Lease(&tmpl)
		r.client.Connect(serverAddr, ka.Port, s)
		r.net.Run(0)
		if !s.Succeeded() {
			t.Fatal("keep-alive exchange failed")
		}
		r.served = append(r.served, s)
		r.free.Release(r.served...)
		r.served = r.served[:0]
	})
	if perSend := mean / (requests - 1); perSend > 0 {
		t.Errorf("a keep-alive exchange allocates %.3f objects per delayed send, budget is 0", perSend)
	}
}
