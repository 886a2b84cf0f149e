package apps

import (
	"testing"

	"geneva/internal/packet"
)

// FuzzDNSQueryName: the GFW's DNS parser sees every byte a client sends;
// it must never panic and never mis-frame (its fail-open behaviour is what
// §6 depends on).
func FuzzDNSQueryName(f *testing.F) {
	f.Add(EncodeDNSQuery("www.wikipedia.org"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, ok := packet.ParseDNSQueryName(nil, data)
		if ok && len(name) == 0 {
			t.Fatal("claimed success with an empty name")
		}
		if rn, rok := refDNSQueryName(data); rn != string(name) || rok != ok {
			t.Fatalf("byte parser diverged from reference: got (%q,%v), want (%q,%v)", name, ok, rn, rok)
		}
	})
}

// FuzzExtractSNI: likewise for the HTTPS boxes' ClientHello parser.
func FuzzExtractSNI(f *testing.F) {
	f.Add(EncodeClientHello("youtube.com"))
	f.Add([]byte{0x16, 0x03, 0x01, 0x00, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sni, ok := packet.ParseTLSServerName(data)
		if ok && len(sni) == 0 {
			t.Fatal("claimed success with an empty SNI")
		}
	})
}

// FuzzHTTPParsers: request-line and Host-header extraction over arbitrary
// segments (the stateless censors run these on every packet).
func FuzzHTTPParsers(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a.example\r\n\r\n"))
	f.Add([]byte("Host:"))
	f.Add([]byte{})
	// Each live parser must agree with the frozen string-based reference on
	// every input — the fail-open edges are load-bearing.
	check := func(t *testing.T, name string, live func([]byte) ([]byte, bool), ref func([]byte) (string, bool), data []byte) {
		t.Helper()
		g, gok := live(data)
		w, wok := ref(data)
		if string(g) != w || gok != wok {
			t.Fatalf("%s diverged: got (%q,%v), want (%q,%v)", name, g, gok, w, wok)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, "ParseHTTPRequestTarget", packet.ParseHTTPRequestTarget, refHTTPRequestTarget, data)
		check(t, "ParseHTTPHostHeader", packet.ParseHTTPHostHeader, refHTTPHostHeader, data)
		check(t, "FTPRetrTarget", FTPRetrTarget, refFTPRetrTarget, data)
		check(t, "SMTPRcptTarget", SMTPRcptTarget, refSMTPRcptTarget, data)
	})
}
