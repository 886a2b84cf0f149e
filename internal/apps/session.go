package apps

import (
	"bytes"
	"fmt"
	"time"

	"geneva/internal/tcpstack"
)

// Session is one ready-to-run application exchange: an un-run template
// script for each side. Harnesses run copies of the templates (see
// Scripts) and never run or modify the templates themselves, which may be
// shared across goroutines.
type Session struct {
	Protocol  string
	Port      uint16
	client    *Script
	server    *Script
	exchanges int // request/response exchanges per connection (0 or 1 = one-shot)
}

// Client returns the session's un-run client template. It is read-only:
// lease a copy to run it.
func (s *Session) Client() *Script { return s.client }

// Server returns the session's un-run server template. It is read-only:
// lease a copy to run it.
func (s *Session) Server() *Script { return s.server }

// NewClient returns a fresh client application for one connection attempt.
// Its only caller outside tests is bench/'s replay.
func (s *Session) NewClient() *Script { return s.client.Clone() }

// ServerFactory returns a function to install as Endpoint.NewServerApp
// that clones the server template per connection. Its only caller outside
// tests is bench/'s replay.
func (s *Session) ServerFactory() func(*tcpstack.Conn) tcpstack.App {
	return func(*tcpstack.Conn) tcpstack.App { return s.server.Clone() }
}

// Exchanges returns how many request/response exchanges one connection of
// this session carries (1 for the classic one-shot sessions).
func (s *Session) Exchanges() int {
	if s.exchanges > 1 {
		return s.exchanges
	}
	return 1
}

// KeepAlive derives a long-lived variant of a one-shot request/response
// session: one connection carrying n exchanges of the same request and
// response, each follow-up request held for gap of virtual time after the
// previous response lands. The protocols whose transcript is a single
// client request answered by a single server response (HTTP, HTTPS, DNS)
// extend this way; multi-step conversations (FTP, SMTP) are returned
// unchanged — their transcripts don't repeat.
//
// The server side answers each request as it arrives with no delay of its
// own, so copies of the same server template also serve a reconnecting
// client that runs fewer than n exchanges and closes early.
func (s *Session) KeepAlive(n int, gap time.Duration) *Session {
	if n <= 1 {
		return s
	}
	if len(s.client.SendOnEstablish) == 0 || len(s.client.SendAt) != 0 ||
		len(s.server.SendAt) != 1 || s.server.SendAt[0].Off != len(s.server.Expect) {
		return s
	}
	req := s.client.SendOnEstablish
	resp := s.server.SendAt[0].Data
	clientSend := make([]SendPoint, 0, n-1)
	for i := 1; i < n; i++ {
		clientSend = append(clientSend, SendPoint{Off: i * len(resp), Data: req, Delay: gap})
	}
	serverSend := make([]SendPoint, 0, n)
	for i := 1; i <= n; i++ {
		serverSend = append(serverSend, SendPoint{Off: i * len(req), Data: resp})
	}
	return &Session{
		Protocol:  s.Protocol,
		Port:      s.Port,
		exchanges: n,
		client: &Script{
			SendOnEstablish: req,
			Expect:          bytes.Repeat(resp, n),
			SendAt:          clientSend,
			CloseAtEnd:      s.client.CloseAtEnd,
			ExchangeSize:    len(resp),
		},
		server: &Script{
			Expect:       bytes.Repeat(req, n),
			SendAt:       serverSend,
			ExchangeSize: len(req),
		},
	}
}

// DNSSession builds a DNS-over-TCP lookup of name. The server resolves
// everything to 93.184.216.34.
func DNSSession(name string) *Session {
	query := EncodeDNSQuery(name)
	resp := AppendDNSResponse(nil, []byte(name), [4]byte{93, 184, 216, 34})
	return &Session{
		Protocol: "dns",
		Port:     53,
		client: &Script{
			SendOnEstablish: query,
			Expect:          resp,
		},
		server: &Script{
			Expect: query,
			SendAt: []SendPoint{{Off: len(query), Data: resp}},
		},
	}
}

// FTPSession builds an FTP control-channel sign-in followed by a RETR of
// filename (the paper's censorship trigger, e.g. "ultrasurf").
func FTPSession(filename string) *Session {
	greet := []byte("220 ftp.example.org FTP server ready\r\n")
	user := []byte("USER anonymous\r\n")
	userOK := []byte("331 Please specify the password\r\n")
	pass := []byte("PASS guest\r\n")
	passOK := []byte("230 Login successful\r\n")
	retr := []byte(fmt.Sprintf("RETR %s\r\n", filename))
	retrOK := []byte("150 Opening BINARY mode data connection\r\n226 Transfer complete\r\n")

	serverOut := concat(greet, userOK, passOK, retrOK)
	clientOut := concat(user, pass, retr)
	return &Session{
		Protocol: "ftp",
		Port:     21,
		client: &Script{
			Expect: serverOut,
			SendAt: []SendPoint{
				{Off: len(greet), Data: user},
				{Off: len(greet) + len(userOK), Data: pass},
				{Off: len(greet) + len(userOK) + len(passOK), Data: retr},
			},
		},
		server: &Script{
			SendOnEstablish: greet,
			Expect:          clientOut,
			SendAt: []SendPoint{
				{Off: len(user), Data: userOK},
				{Off: len(user) + len(pass), Data: passOK},
				{Off: len(clientOut), Data: retrOK},
			},
		},
	}
}

// HTTPQuerySession builds a GET with the keyword in the URL parameters —
// how the paper triggers China's HTTP censorship (?q=ultrasurf).
func HTTPQuerySession(keyword string) *Session {
	req := []byte(fmt.Sprintf("GET /?q=%s HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n", keyword))
	return httpSession(req)
}

// HTTPHostSession builds a GET with a (possibly blacklisted) Host header —
// how the paper triggers censorship in India, Iran, and Kazakhstan.
func HTTPHostSession(host string) *Session {
	req := []byte(fmt.Sprintf("GET / HTTP/1.1\r\nHost: %s\r\nAccept: */*\r\n\r\n", host))
	return httpSession(req)
}

func httpSession(req []byte) *Session {
	body := "<html><body>the real, uncensored page</body></html>"
	resp := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	return &Session{
		Protocol: "http",
		Port:     80,
		client: &Script{
			SendOnEstablish: req,
			Expect:          resp,
		},
		server: &Script{
			Expect: req,
			SendAt: []SendPoint{{Off: len(req), Data: resp}},
		},
	}
}

// HTTPSSession builds a TLS handshake with sni in the Server Name
// Indication field (e.g. www.wikipedia.org for China, youtube.com for Iran).
func HTTPSSession(sni string) *Session {
	hello := EncodeClientHello(sni)
	resp := EncodeServerHello()
	return &Session{
		Protocol: "https",
		Port:     443,
		client: &Script{
			SendOnEstablish: hello,
			Expect:          resp,
		},
		server: &Script{
			Expect: hello,
			SendAt: []SendPoint{{Off: len(hello), Data: resp}},
		},
	}
}

// SMTPSession builds an SMTP exchange mailing rcpt (the paper uses the
// censored address tibetalk@yahoo.com.cn).
func SMTPSession(rcpt string) *Session {
	greet := []byte("220 mail.example.org ESMTP ready\r\n")
	helo := []byte("HELO client.example.net\r\n")
	heloOK := []byte("250 mail.example.org\r\n")
	from := []byte("MAIL FROM:<sender@example.net>\r\n")
	fromOK := []byte("250 2.1.0 Ok\r\n")
	to := []byte(fmt.Sprintf("RCPT TO:<%s>\r\n", rcpt))
	toOK := []byte("250 2.1.5 Ok\r\n")

	serverOut := concat(greet, heloOK, fromOK, toOK)
	clientOut := concat(helo, from, to)
	return &Session{
		Protocol: "smtp",
		Port:     25,
		client: &Script{
			Expect: serverOut,
			SendAt: []SendPoint{
				{Off: len(greet), Data: helo},
				{Off: len(greet) + len(heloOK), Data: from},
				{Off: len(greet) + len(heloOK) + len(fromOK), Data: to},
			},
		},
		server: &Script{
			SendOnEstablish: greet,
			Expect:          clientOut,
			SendAt: []SendPoint{
				{Off: len(helo), Data: heloOK},
				{Off: len(helo) + len(from), Data: fromOK},
				{Off: len(clientOut), Data: toOK},
			},
		},
	}
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// --- DPI payload parsers used by the censor models ---
//
// The HTTP/TLS/DNS field extractors live in internal/packet (appdata.go).
// The FTP/SMTP command parsers stay here; like those, they read the
// argument in place.

// FTPRetrTarget returns the argument of a RETR command in data, if fully
// present. The argument aliases data.
func FTPRetrTarget(data []byte) ([]byte, bool) {
	return commandArg(data, "RETR ")
}

// SMTPRcptTarget returns the address in a RCPT TO command in data, if fully
// present. The address aliases data.
func SMTPRcptTarget(data []byte) ([]byte, bool) {
	arg, ok := commandArg(data, "RCPT TO:")
	if !ok {
		return nil, false
	}
	return bytes.Trim(arg, "<>"), true
}

func commandArg(data []byte, cmd string) ([]byte, bool) {
	idx := bytes.Index(data, []byte(cmd))
	if idx < 0 {
		return nil, false
	}
	rest := data[idx+len(cmd):]
	end := bytes.Index(rest, []byte("\r\n"))
	if end < 0 {
		return nil, false
	}
	return bytes.TrimSpace(rest[:end]), true
}
