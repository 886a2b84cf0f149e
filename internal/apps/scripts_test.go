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
