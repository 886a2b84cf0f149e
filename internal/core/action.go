package core

import (
	"fmt"
	"math/rand"
	"strings"

	"geneva/internal/packet"
)

// ActionKind enumerates Geneva's five genetic building blocks.
type ActionKind int

// The building blocks.
const (
	ActSend ActionKind = iota
	ActDrop
	ActDuplicate
	ActTamper
	ActFragment
)

func (k ActionKind) String() string {
	switch k {
	case ActSend:
		return "send"
	case ActDrop:
		return "drop"
	case ActDuplicate:
		return "duplicate"
	case ActTamper:
		return "tamper"
	case ActFragment:
		return "fragment"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Action is a node in a strategy's action tree. The zero value is a bare
// send. Left and Right are the child branches; a nil child means send.
// Only duplicate and fragment use Right; tamper uses Left only.
type Action struct {
	Kind ActionKind

	// Tamper parameters: tamper{Proto:Field:Mode[:NewValue]}.
	Proto, Field, Mode, NewValue string

	// Fragment parameters: fragment{Proto:Offset:InOrder}.
	FragOffset int
	InOrder    bool

	Left, Right *Action
}

// Send is the canonical bare send action.
func Send() *Action { return &Action{Kind: ActSend} }

// Drop is the canonical drop action.
func Drop() *Action { return &Action{Kind: ActDrop} }

// Duplicate builds a duplicate node.
func Duplicate(left, right *Action) *Action {
	return &Action{Kind: ActDuplicate, Left: left, Right: right}
}

// Tamper builds a tamper node.
func Tamper(proto, field, mode, newValue string, next *Action) *Action {
	return &Action{Kind: ActTamper, Proto: proto, Field: field, Mode: mode, NewValue: newValue, Left: next}
}

// Fragment builds a fragment node.
func Fragment(proto string, offset int, inOrder bool, left, right *Action) *Action {
	return &Action{Kind: ActFragment, Proto: proto, FragOffset: offset, InOrder: inOrder, Left: left, Right: right}
}

// Clone deep-copies the action tree.
func (a *Action) Clone() *Action {
	if a == nil {
		return nil
	}
	c := *a
	c.Left = a.Left.Clone()
	c.Right = a.Right.Clone()
	return &c
}

// Apply runs the action tree on pkt and returns the packets to emit, in
// order. pkt may be mutated, its payload buffer included; callers pass a
// clone when they need the original. Malformed tampers are no-ops (Geneva
// evolves nonsense routinely; the engine must never crash on it).
func (a *Action) Apply(pkt *packet.Packet, rng *rand.Rand) []*packet.Packet {
	if pkt == nil {
		return nil
	}
	return a.appendApply(nil, pkt, rng)
}

// appendApply is Apply in append form: emitted packets are appended to out,
// so a caller with a reusable buffer (the Engine) pays no per-packet slice
// allocations. Subtree evaluation order is always left-then-right — tampers
// draw from rng, and reordering the draws would change every evolved
// strategy's behaviour — even when the *output* order is right-then-left
// (out-of-order fragments), which is fixed up by rotation afterwards.
func (a *Action) appendApply(out []*packet.Packet, pkt *packet.Packet, rng *rand.Rand) []*packet.Packet {
	if pkt == nil {
		return out
	}
	if a == nil {
		return append(out, pkt)
	}
	switch a.Kind {
	case ActSend:
		return append(out, pkt)
	case ActDrop:
		return out
	case ActDuplicate:
		copy2 := pkt.ClonePooled()
		out = a.Left.appendApply(out, pkt, rng)
		return a.Right.appendApply(out, copy2, rng)
	case ActTamper:
		tamper(pkt, a.Proto, a.Field, a.Mode, a.NewValue, rng)
		return a.Left.appendApply(out, pkt, rng)
	case ActFragment:
		f1, f2, ok := fragment(pkt, a.FragOffset)
		if !ok {
			return a.Left.appendApply(out, pkt, rng)
		}
		if a.InOrder {
			out = a.Left.appendApply(out, f1, rng)
			return a.Right.appendApply(out, f2, rng)
		}
		mark := len(out)
		out = a.Left.appendApply(out, f1, rng)
		firstN := len(out) - mark
		out = a.Right.appendApply(out, f2, rng)
		rotateLeft(out[mark:], firstN)
		return out
	}
	return append(out, pkt)
}

// rotateLeft rotates s left by k in place (three reversals), preserving the
// relative order within each half. Used to emit out-of-order fragments as
// [second..., first...] while still evaluating first... first.
func rotateLeft(s []*packet.Packet, k int) {
	reversePkts(s[:k])
	reversePkts(s[k:])
	reversePkts(s)
}

func reversePkts(s []*packet.Packet) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// fragment splits a packet's TCP payload at offset (clamped to a sensible
// split point). IP- and TCP-level fragmentation collapse to segmentation in
// the structured-packet simulator; none of the paper's server-side
// strategies use fragment, but the GA may evolve it.
func fragment(pkt *packet.Packet, offset int) (f1, f2 *packet.Packet, ok bool) {
	n := len(pkt.TCP.Payload)
	if n < 2 {
		return nil, nil, false
	}
	if offset <= 0 || offset >= n {
		offset = n / 2
	}
	f1 = pkt
	f2 = pkt.ClonePooled()
	f2.TCP.Payload = f2.TCP.Payload[offset:]
	f2.TCP.Seq += uint32(offset)
	f1.TCP.Payload = f1.TCP.Payload[:offset]
	return f1, f2, true
}

// String renders the action in Geneva's canonical syntax.
func (a *Action) String() string {
	if a == nil {
		return ""
	}
	var b strings.Builder
	a.write(&b)
	return b.String()
}

func (a *Action) write(b *strings.Builder) {
	switch a.Kind {
	case ActSend:
		b.WriteString("send")
	case ActDrop:
		b.WriteString("drop")
	case ActDuplicate:
		b.WriteString("duplicate")
		writeChildren(b, a.Left, a.Right)
	case ActTamper:
		b.WriteString("tamper{")
		b.WriteString(a.Proto)
		b.WriteByte(':')
		b.WriteString(a.Field)
		b.WriteByte(':')
		b.WriteString(a.Mode)
		if a.Mode == "replace" {
			b.WriteByte(':')
			b.WriteString(a.NewValue)
		}
		b.WriteByte('}')
		if a.Left != nil {
			writeChildren(b, a.Left, nil)
		}
	case ActFragment:
		fmt.Fprintf(b, "fragment{%s:%d:%t}", a.Proto, a.FragOffset, a.InOrder)
		writeChildren(b, a.Left, a.Right)
	}
}

func writeChildren(b *strings.Builder, left, right *Action) {
	if left == nil && right == nil {
		return
	}
	b.WriteByte('(')
	if left != nil {
		left.write(b)
	}
	b.WriteByte(',')
	if right != nil {
		right.write(b)
	}
	b.WriteByte(')')
}

// Size counts the nodes in the tree (GA fitness penalizes bloat).
func (a *Action) Size() int {
	if a == nil {
		return 0
	}
	return 1 + a.Left.Size() + a.Right.Size()
}
