package netsim

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// pcap constants for the classic libpcap file format.
const (
	pcapMagicMicros = 0xa1b2c3d4
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	// linktypeRaw means packets begin directly with an IPv4/IPv6 header.
	linktypeRaw = 101
	pcapSnapLen = 65535
)

// WritePcap serializes the trace's packets as a libpcap capture file
// (LINKTYPE_RAW), readable by tcpdump and Wireshark: one record per packet
// fate (deliveries, drops, expiries, losses and unroutable packets), so
// each packet copy on the wire appears once. Timestamps are the virtual
// clock offsets.
func (t *Trace) WritePcap(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVersionMin)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linktypeRaw)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("pcap header: %w", err)
	}
	for i, e := range t.Entries {
		if !e.Event.fate() {
			continue
		}
		// Each entry holds a cloned packet; serialize it fresh.
		wire, err := e.Pkt.Wire()
		if err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.Time/time.Second))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.Time%time.Second/time.Microsecond))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(wire)))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(wire)))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("packet %d record: %w", i, err)
		}
		if _, err := w.Write(wire); err != nil {
			return fmt.Errorf("packet %d data: %w", i, err)
		}
	}
	return nil
}

// ReadPcap parses a capture produced by WritePcap back into raw packet
// byte slices (primarily for tests; real captures go to Wireshark).
func ReadPcap(r io.Reader) ([][]byte, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr) != pcapMagicMicros {
		return nil, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(hdr))
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linktypeRaw {
		return nil, fmt.Errorf("pcap: unsupported linktype %d", lt)
	}
	var pkts [][]byte
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return pkts, nil
			}
			return nil, fmt.Errorf("pcap record: %w", err)
		}
		n := binary.LittleEndian.Uint32(rec[8:])
		if n > pcapSnapLen {
			return nil, fmt.Errorf("pcap: record of %d bytes exceeds snaplen", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("pcap data: %w", err)
		}
		pkts = append(pkts, data)
	}
}
