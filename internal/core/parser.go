package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrInvalidStrategy is the sentinel wrapped by every strategy-parse
// failure, so callers anywhere above the parser can classify one with
// errors.Is(err, ErrInvalidStrategy) without matching message text. The
// public facade re-exports it as geneva.ErrInvalidStrategy.
var ErrInvalidStrategy = errors.New("invalid strategy")

// Parse reads a strategy in Geneva's canonical syntax:
//
//	<outbound rules> \/ <inbound rules>
//
// where each rule is [proto:field:value]-<action tree>-|. The engine runs on
// the server and rewrites only the packets it sends, so the inbound forest
// must be empty: Parse rejects inbound rules rather than silently ignoring
// them. Parse(s.String()) is the identity for any valid strategy.
func Parse(input string) (*Strategy, error) {
	outPart, inPart, _ := strings.Cut(input, "\\/")
	rules, err := parseRules(outPart)
	if err != nil {
		return nil, fmt.Errorf("%w: outbound: %w", ErrInvalidStrategy, err)
	}
	if in := strings.Trim(inPart, " \t\n"); in != "" {
		return nil, fmt.Errorf("%w: inbound %q: the server-side engine applies outbound rules only", ErrInvalidStrategy, in)
	}
	return &Strategy{Outbound: rules}, nil
}

// MustParse is Parse for statically known strategies (the library in
// internal/strategies); it panics on error.
func MustParse(input string) *Strategy {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

func parseRules(input string) ([]Rule, error) {
	p := &parser{s: input}
	var rules []Rule
	for {
		p.skipSpace()
		if p.eof() {
			return rules, nil
		}
		if p.peek() != '[' {
			return nil, fmt.Errorf("offset %d: expected '[' to open a trigger, found %q", p.pos, p.rest())
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
}

type parser struct {
	s   string
	pos int
}

func (p *parser) eof() bool  { return p.pos >= len(p.s) }
func (p *parser) peek() byte { return p.s[p.pos] }
func (p *parser) rest() string {
	if p.eof() {
		return ""
	}
	r := p.s[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "..."
	}
	return r
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t' || p.peek() == '\n') {
		p.pos++
	}
}

func (p *parser) expect(tok string) error {
	if !strings.HasPrefix(p.s[p.pos:], tok) {
		return fmt.Errorf("offset %d: expected %q, found %q", p.pos, tok, p.rest())
	}
	p.pos += len(tok)
	return nil
}

func (p *parser) parseRule() (Rule, error) {
	var r Rule
	if err := p.expect("["); err != nil {
		return r, err
	}
	end := strings.IndexByte(p.s[p.pos:], ']')
	if end < 0 {
		return r, fmt.Errorf("offset %d: unterminated trigger", p.pos)
	}
	raw := p.s[p.pos : p.pos+end]
	p.pos += end + 1
	parts := strings.SplitN(raw, ":", 3)
	if len(parts) != 3 {
		return r, fmt.Errorf("trigger %q: want proto:field:value", raw)
	}
	r.Trigger = Trigger{Proto: parts[0], Field: parts[1], Value: parts[2]}
	if err := p.expect("-"); err != nil {
		return r, err
	}
	a, err := p.parseAction()
	if err != nil {
		return r, err
	}
	r.Action = a
	p.skipSpace()
	if err := p.expect("-|"); err != nil {
		return r, err
	}
	return r, nil
}

// parseAction parses one action subtree; it returns nil for an empty slot
// (an implicit send).
func (p *parser) parseAction() (*Action, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() && isWord(p.peek()) {
		p.pos++
	}
	name := p.s[start:p.pos]
	if name == "" {
		return nil, nil // empty slot
	}

	a := &Action{}
	switch name {
	case "send":
		a.Kind = ActSend
	case "drop":
		a.Kind = ActDrop
	case "duplicate":
		a.Kind = ActDuplicate
	case "tamper":
		a.Kind = ActTamper
	case "fragment":
		a.Kind = ActFragment
	default:
		return nil, fmt.Errorf("offset %d: unknown action %q", start, name)
	}

	if !p.eof() && p.peek() == '{' {
		end := strings.IndexByte(p.s[p.pos:], '}')
		if end < 0 {
			return nil, fmt.Errorf("offset %d: unterminated '{'", p.pos)
		}
		args := p.s[p.pos+1 : p.pos+end]
		p.pos += end + 1
		if err := a.setArgs(args); err != nil {
			return nil, err
		}
	} else if a.Kind == ActTamper || a.Kind == ActFragment {
		return nil, fmt.Errorf("offset %d: %s requires a '{...}' argument block", start, name)
	}

	if !p.eof() && p.peek() == '(' {
		p.pos++
		left, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(","); err != nil {
			return nil, err
		}
		right, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		a.Left, a.Right = left, right
		if a.Kind == ActTamper && right != nil {
			return nil, fmt.Errorf("tamper takes a single branch")
		}
	}
	return a, nil
}

// setArgs interprets the {…} argument block for tamper and fragment.
func (a *Action) setArgs(args string) error {
	switch a.Kind {
	case ActTamper:
		// proto:field:mode[:value] — the value may contain ':' (URLs);
		// split only the first three fields.
		parts := strings.SplitN(args, ":", 4)
		if len(parts) < 3 {
			return fmt.Errorf("tamper{%s}: want proto:field:mode[:value]", args)
		}
		a.Proto, a.Field, a.Mode = parts[0], parts[1], parts[2]
		if len(parts) == 4 {
			a.NewValue = parts[3]
		}
		if a.Mode != "replace" && a.Mode != "corrupt" {
			return fmt.Errorf("tamper{%s}: unknown mode %q", args, a.Mode)
		}
	case ActFragment:
		parts := strings.Split(args, ":")
		if len(parts) != 3 {
			return fmt.Errorf("fragment{%s}: want proto:offset:inOrder", args)
		}
		a.Proto = parts[0]
		off, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("fragment{%s}: bad offset: %v", args, err)
		}
		a.FragOffset = off
		inOrder, err := strconv.ParseBool(parts[2])
		if err != nil {
			return fmt.Errorf("fragment{%s}: bad inOrder: %v", args, err)
		}
		a.InOrder = inOrder
	default:
		return fmt.Errorf("%s takes no '{...}' arguments", a.Kind)
	}
	return nil
}

func isWord(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
