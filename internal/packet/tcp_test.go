package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func tcpAddrs() (src, dst []byte) {
	a, b := addrA.As4(), addrB.As4()
	return a[:], b[:]
}

func TestTCPMarshalUnmarshalRoundtrip(t *testing.T) {
	src, dst := tcpAddrs()
	in := TCP{
		SrcPort: 443, DstPort: 51000, Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: FlagSYN | FlagACK, Window: 14600, Urgent: 0,
		Options: []Option{
			{Kind: OptMSS, Data: []byte{0x05, 0xb4}},
			{Kind: OptNOP},
			{Kind: OptWScale, Data: []byte{7}},
		},
		Payload: []byte("GET / HTTP/1.1\r\n"),
	}
	wire, err := in.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	var out TCP
	if err := out.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != in.SrcPort || out.DstPort != in.DstPort ||
		out.Seq != in.Seq || out.Ack != in.Ack || out.Flags != in.Flags ||
		out.Window != in.Window {
		t.Errorf("header fields: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload = %q", out.Payload)
	}
	if len(out.Options) != 3 || out.Options[0].Kind != OptMSS ||
		out.Options[2].Kind != OptWScale || out.Options[2].Data[0] != 7 {
		t.Errorf("options = %+v", out.Options)
	}
	if !out.ChecksumValid(src, dst) {
		t.Error("checksum invalid after roundtrip")
	}
}

func TestTCPChecksumDetectsBitFlip(t *testing.T) {
	src, dst := tcpAddrs()
	in := TCP{SrcPort: 80, DstPort: 1234, Flags: FlagACK, Payload: []byte("x")}
	wire, err := in.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)-1] ^= 0x01
	var out TCP
	if err := out.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if out.ChecksumValid(src, dst) {
		t.Error("flipped payload bit not detected")
	}
}

func TestTCPRawChecksumPreservesCorruption(t *testing.T) {
	src, dst := tcpAddrs()
	in := TCP{SrcPort: 80, DstPort: 1234, Flags: FlagSYN | FlagACK,
		Checksum: 0xabcd, RawChecksum: true}
	wire, err := in.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	var out TCP
	if err := out.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if out.Checksum != 0xabcd {
		t.Errorf("Checksum = %#x, want the tampered value", out.Checksum)
	}
	if out.ChecksumValid(src, dst) {
		t.Error("corrupted checksum validated")
	}
}

func TestTCPOptionsPaddingAlignment(t *testing.T) {
	src, dst := tcpAddrs()
	in := TCP{SrcPort: 1, DstPort: 2, Options: []Option{{Kind: OptWScale, Data: []byte{3}}}}
	wire, err := in.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 24 {
		t.Fatalf("segment length = %d, want 24 (20 + 3 option bytes padded to 4)", len(wire))
	}
	if wire[12]>>4 != 6 {
		t.Errorf("data offset = %d, want 6", wire[12]>>4)
	}
}

func TestTCPRemoveAndSetOption(t *testing.T) {
	tc := TCP{Options: []Option{
		{Kind: OptMSS, Data: []byte{1, 2}},
		{Kind: OptWScale, Data: []byte{9}},
		{Kind: OptWScale, Data: []byte{8}},
	}}
	if !tc.RemoveOption(OptWScale) {
		t.Fatal("RemoveOption found nothing")
	}
	if tc.Option(OptWScale) != nil {
		t.Error("wscale still present after RemoveOption")
	}
	if tc.RemoveOption(OptWScale) {
		t.Error("second RemoveOption reported true")
	}
	// Replacing an option is RemoveOption followed by AddOption, which
	// copies the caller's bytes.
	mss := []byte{5, 6}
	tc.RemoveOption(OptMSS)
	tc.AddOption(OptMSS, mss...)
	mss[0] = 7
	if o := tc.Option(OptMSS); o == nil || !bytes.Equal(o.Data, []byte{5, 6}) || len(tc.Options) != 1 {
		t.Errorf("replacing MSS failed: %+v", tc.Options)
	}
	tc.AddOption(OptSACKOK)
	if tc.Option(OptSACKOK) == nil {
		t.Error("AddOption append failed")
	}
}

func TestTCPFlagsStringRoundtrip(t *testing.T) {
	cases := []struct {
		f uint8
		s string
	}{
		{FlagSYN, "S"},
		{FlagSYN | FlagACK, "SA"},
		{FlagFIN | FlagPSH | FlagACK, "FPA"},
		{FlagRST, "R"},
		{0, ""},
		{FlagFIN | FlagSYN | FlagRST | FlagPSH | FlagACK | FlagURG, "FSRPAU"},
	}
	for _, c := range cases {
		if got := FlagsString(c.f); got != c.s {
			t.Errorf("FlagsString(%#x) = %q, want %q", c.f, got, c.s)
		}
		back, err := ParseFlags(c.s)
		if err != nil || back != c.f {
			t.Errorf("ParseFlags(%q) = %#x, %v; want %#x", c.s, back, err, c.f)
		}
	}
	if _, err := ParseFlags("SZ"); err == nil {
		t.Error("ParseFlags accepted unknown flag letter")
	}
}

func TestTCPUnmarshalErrors(t *testing.T) {
	var out TCP
	if err := out.Unmarshal(make([]byte, 19)); err == nil {
		t.Error("want error for truncated segment")
	}
	src, dst := tcpAddrs()
	in := TCP{SrcPort: 1, DstPort: 2}
	wire, _ := in.Marshal(src, dst)
	wire[12] = 0x30 // data offset 3 < 5
	if err := out.Unmarshal(wire); err == nil {
		t.Error("want error for data offset < 5")
	}
	// Malformed option: claims more bytes than present.
	in2 := TCP{SrcPort: 1, DstPort: 2, Options: []Option{{Kind: OptMSS, Data: []byte{1, 2}}}}
	wire2, _ := in2.Marshal(src, dst)
	wire2[21] = 40 // option length 40 in a 4-byte option area
	if err := out.Unmarshal(wire2); err == nil {
		t.Error("want error for option overrun")
	}
}

func TestTCPRoundtripProperty(t *testing.T) {
	src, dst := tcpAddrs()
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		in := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags & 0x3f, Window: win, Payload: payload}
		wire, err := in.Marshal(src, dst)
		if err != nil {
			return false
		}
		var out TCP
		if err := out.Unmarshal(wire); err != nil {
			return false
		}
		return out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Seq == in.Seq && out.Ack == in.Ack && out.Flags == in.Flags &&
			out.Window == in.Window && bytes.Equal(out.Payload, payload) &&
			out.ChecksumValid(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
