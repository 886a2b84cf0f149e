package packet

import (
	"bytes"
	"net/netip"
	"testing"

	"geneva/internal/allocs"
	"geneva/internal/race"
)

var (
	poolSrc = netip.MustParseAddr("10.1.0.2")
	poolDst = netip.MustParseAddr("198.51.100.9")
)

// TestPoolRecycledPacketIsPristine pins the pool's central safety property:
// a packet that went through the pool is indistinguishable from a freshly
// constructed one, no matter how dirty it was when it was recycled.
func TestPoolRecycledPacketIsPristine(t *testing.T) {
	dirty := Get(poolSrc, poolDst, 40000, 80)
	dirty.TCP.Flags = FlagPSH | FlagACK
	dirty.TCP.Seq = 0xdeadbeef
	dirty.TCP.Payload = append(dirty.TCP.Payload[:0], "SECRET PAYLOAD BYTES"...)
	dirty.TCP.AddOption(OptMSS, 0xAA, 0xBB)
	dirty.TCP.AddOption(OptWScale, 0xCC)
	dirty.IP.Options = append(dirty.IP.Options[:0], 0xAA, 0xAA, 0xAA, 0xAA)
	dirty.IP.TTL = 3
	Put(dirty)

	// The pool is per-P so the very next Get on this goroutine normally
	// returns the same object — but even if it does not, every pooled
	// packet must come back pristine.
	for i := 0; i < 64; i++ {
		got := Get(poolSrc, poolDst, 40000, 80)
		want := New(poolSrc, poolDst, 40000, 80)
		wantWire, err := want.Wire()
		if err != nil {
			t.Fatal(err)
		}
		gotWire, err := got.Wire()
		if err != nil {
			t.Fatalf("recycled packet %d does not serialize: %v", i, err)
		}
		if string(gotWire) != string(wantWire) {
			t.Fatalf("recycled packet %d differs from fresh packet on the wire:\n got %x\nwant %x",
				i, gotWire, wantWire)
		}
		if len(got.TCP.Options) != 0 || len(got.TCP.Payload) != 0 || len(got.IP.Options) != 0 {
			t.Fatalf("recycled packet %d kept state: %d TCP options, %d payload bytes, %d IP option bytes",
				i, len(got.TCP.Options), len(got.TCP.Payload), len(got.IP.Options))
		}
		Put(got)
	}
}

// TestPoolNoBytesLeakThroughReuse is the buffer-aliasing property test: a
// recycled packet's reused payload capacity must never surface old bytes.
// A short payload written into a buffer that previously held a longer
// secret must serialize to exactly the short payload.
func TestPoolNoBytesLeakThroughReuse(t *testing.T) {
	secret := "0123456789abcdef0123456789abcdef-SECRET"
	p := Get(poolSrc, poolDst, 40000, 80)
	p.TCP.Payload = append(p.TCP.Payload[:0], secret...)
	p.TCP.AddOption(OptSACKOK, []byte(secret)...)
	Put(p)

	q := Get(poolSrc, poolDst, 40000, 80)
	q.TCP.Flags = FlagPSH | FlagACK
	q.TCP.Payload = append(q.TCP.Payload[:0], "hi"...)
	wire, err := q.Wire()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(poolSrc, poolDst, 40000, 80)
	fresh.TCP.Flags = FlagPSH | FlagACK
	fresh.TCP.Payload = []byte("hi")
	want, err := fresh.Wire()
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != string(want) {
		t.Fatalf("wire form of pooled packet leaks recycled bytes:\n got %x\nwant %x", wire, want)
	}
	Put(q)
}

// TestPoolRemoveOptionKeepsSurvivors pins option removal on recycled
// packets: across cycles of build, remove one kind, re-add it and recycle,
// the surviving options keep their bytes and order, the re-added option
// holds its new bytes, and no two slots share a Data buffer, so writing
// one option never reaches another.
func TestPoolRemoveOptionKeepsSurvivors(t *testing.T) {
	kinds := []byte{OptMSS, OptNOP, OptWScale, OptSACKOK, OptTimestamp}
	for cycle := 0; cycle < 40; cycle++ {
		p := Get(poolSrc, poolDst, 40000, 80)
		var want []Option
		add := func(kind byte, data ...byte) {
			p.TCP.AddOption(kind, data...)
			want = append(want, Option{Kind: kind, Data: append([]byte(nil), data...)})
		}
		for i, k := range kinds {
			if k == OptNOP {
				add(k)
				continue
			}
			add(k, bytes.Repeat([]byte{byte(cycle), byte(i)}, int(k))...)
		}
		gone := kinds[cycle%len(kinds)]
		if !p.TCP.RemoveOption(gone) {
			t.Fatalf("cycle %d: RemoveOption(%d) found nothing", cycle, gone)
		}
		kept := want[:0]
		for _, o := range want {
			if o.Kind != gone {
				kept = append(kept, o)
			}
		}
		want = kept
		add(gone, byte(cycle), 0xEE)
		if len(p.TCP.Options) != len(want) {
			t.Fatalf("cycle %d: %d options, want %d", cycle, len(p.TCP.Options), len(want))
		}
		for i, o := range p.TCP.Options {
			if o.Kind != want[i].Kind || !bytes.Equal(o.Data, want[i].Data) {
				t.Fatalf("cycle %d: option %d is %d %x, want %d %x",
					cycle, i, o.Kind, o.Data, want[i].Kind, want[i].Data)
			}
		}
		for i := range p.TCP.Options {
			if d := p.TCP.Options[i].Data; len(d) > 0 {
				d[0] ^= 0xFF
			}
			for j, o := range p.TCP.Options {
				if j != i && !bytes.Equal(o.Data, want[j].Data) {
					t.Fatalf("cycle %d: writing option %d changed option %d", cycle, i, j)
				}
			}
			if d := p.TCP.Options[i].Data; len(d) > 0 {
				d[0] ^= 0xFF
			}
		}
		Put(p)
	}
}

// TestCopyFromDeepCopies verifies ClonePooled/CopyFrom isolation: mutating
// the copy never reaches the original, including through option Data slots.
func TestCopyFromDeepCopies(t *testing.T) {
	orig := New(poolSrc, poolDst, 40000, 80)
	orig.TCP.Flags = FlagSYN
	orig.TCP.Payload = []byte("payload")
	orig.TCP.AddOption(OptMSS, 0x05, 0xB4)
	orig.IP.Options = []byte{1, 2, 3, 4}

	cp := orig.ClonePooled()
	cp.TCP.Payload[0] = 'X'
	cp.TCP.Options[0].Data[0] = 0xFF
	cp.IP.Options[0] = 0xFF

	if orig.TCP.Payload[0] != 'p' {
		t.Error("payload mutation reached the original")
	}
	if orig.TCP.Options[0].Data[0] != 0x05 {
		t.Error("option-data mutation reached the original")
	}
	if orig.IP.Options[0] != 1 {
		t.Error("IP-option mutation reached the original")
	}
	Put(cp)
}

// TestPutNilIsNoop pins the nil-safety of Put (simplifies call sites).
func TestPutNilIsNoop(t *testing.T) {
	Put(nil) // must not panic
}

// TestAllocBudgetPooledRoundtrip pins the hot path at zero allocations: a
// pooled packet serialized into a reused buffer and parsed back into a
// reused packet must not touch the allocator in steady state. A regression
// here silently re-inflates every simulated trial; this test is the CI
// tripwire (see DESIGN.md "The trial hot path").
func TestAllocBudgetPooledRoundtrip(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	payload := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n")
	buf := make([]byte, 0, 256)
	rx := New(poolDst, poolSrc, 80, 40000)
	mean := allocs.Mean(10, 200, func() {
		p := Get(poolSrc, poolDst, 40000, 80)
		p.TCP.Flags = FlagPSH | FlagACK
		p.TCP.Payload = append(p.TCP.Payload[:0], payload...)
		var err error
		buf, err = p.AppendWire(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseInto(rx, buf); err != nil {
			t.Fatal(err)
		}
		Put(p)
	})
	if mean > 0 {
		t.Errorf("pooled wire roundtrip allocates %.3f objects/op, budget is 0", mean)
	}
}

// TestAllocBudgetChecksumValid pins receive-path validation at zero
// allocations (it runs once per delivered packet).
func TestAllocBudgetChecksumValid(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	p := New(poolSrc, poolDst, 40000, 80)
	p.TCP.Flags = FlagPSH | FlagACK
	p.TCP.Payload = []byte("hello")
	if _, err := p.Wire(); err != nil { // stamp the checksum fields
		t.Fatal(err)
	}
	mean := allocs.Mean(10, 200, func() {
		if !p.TCPChecksumValid() {
			t.Fatal("checksum should validate")
		}
	})
	if mean > 0 {
		t.Errorf("TCPChecksumValid allocates %.3f objects/op, budget is 0", mean)
	}
}

// TestAllocBudgetRemoveOption pins option removal on pooled packets at
// zero allocations: a packet whose window-scale option a strategy stripped
// (Strategy 8 does) goes back to the pool with every option slot's Data
// buffer, so the next handshake's AddOption copies into it.
func TestAllocBudgetRemoveOption(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	mean := allocs.Mean(100, 2000, func() {
		p := Get(poolSrc, poolDst, 40000, 80)
		p.TCP.AddOption(OptMSS, 0x05, 0xB4)
		p.TCP.AddOption(OptNOP)
		p.TCP.AddOption(OptWScale, 7)
		p.TCP.RemoveOption(OptWScale)
		Put(p)
	})
	if mean > 0 {
		t.Errorf("a remove-option cycle allocates %.3f objects/op, budget is 0", mean)
	}
}
