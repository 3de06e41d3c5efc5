// Package packet models network packets for the SDNFV data plane: Ethernet,
// IPv4, TCP and UDP header parsing and serialization implemented from
// scratch, plus the 5-tuple flow key and hash used by flow tables and
// flow-affinity load balancing.
//
// Parsing is zero-copy: a View aliases the packet buffer and exposes typed
// accessors over it. NFs that rewrite headers (e.g. the memcached proxy)
// mutate the buffer in place and re-checksum.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers and header sizes (IANA / RFC 791, 793, 768).
const (
	EtherTypeIPv4 = 0x0800

	ProtoTCP = 6
	ProtoUDP = 17

	EthHeaderLen  = 14
	IPv4HeaderLen = 20 // without options
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20 // without options
)

// Common parse errors.
var (
	ErrTooShort    = errors.New("packet: buffer too short")
	ErrNotIPv4     = errors.New("packet: not an IPv4 packet")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadProtocol = errors.New("packet: unsupported transport protocol")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IP is an IPv4 address in network byte order packed into a uint32.
type IP uint32

// IPv4 builds an IP from dotted-quad octets.
func IPv4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// FlowKey is the classic 5-tuple identifying a flow.
type FlowKey struct {
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the key as "proto src:port->dst:port".
func (k FlowKey) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", k.Proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
}

// fnvMix folds one byte into an FNV-1a state.
//
//sdnfv:hotpath
func fnvMix(h uint64, b byte) uint64 {
	const prime64 = 1099511628211
	return (h ^ uint64(b)) * prime64
}

// Hash returns a 64-bit FNV-1a hash of the key, used for flow-affinity load
// balancing (§4.2) and flow-table bucketing. It is written out manually —
// no closure, no fmt, no hash/fnv — so the hot path performs zero
// allocations (enforced by the hotpath analyzer).
//
//sdnfv:hotpath
func (k FlowKey) Hash() uint64 {
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	h = fnvMix(h, byte(k.SrcIP>>24))
	h = fnvMix(h, byte(k.SrcIP>>16))
	h = fnvMix(h, byte(k.SrcIP>>8))
	h = fnvMix(h, byte(k.SrcIP))
	h = fnvMix(h, byte(k.DstIP>>24))
	h = fnvMix(h, byte(k.DstIP>>16))
	h = fnvMix(h, byte(k.DstIP>>8))
	h = fnvMix(h, byte(k.DstIP))
	h = fnvMix(h, byte(k.SrcPort>>8))
	h = fnvMix(h, byte(k.SrcPort))
	h = fnvMix(h, byte(k.DstPort>>8))
	h = fnvMix(h, byte(k.DstPort))
	h = fnvMix(h, k.Proto)
	return h
}

// View is a zero-copy parsed view over a packet buffer. Build one with
// Parse; accessors index directly into the underlying slice.
type View struct {
	buf []byte

	l3Off   int // start of IPv4 header
	l4Off   int // start of TCP/UDP header
	dataOff int // start of application payload

	proto uint8
	valid bool
}

// Parse interprets buf as Ethernet/IPv4/{TCP,UDP}. Non-IPv4 frames and
// unknown transports still return a View (so L2 forwarding works) with
// Transport() reporting false.
//
//sdnfv:hotpath
func Parse(buf []byte) (View, error) {
	v := View{buf: buf}
	if len(buf) < EthHeaderLen {
		return v, ErrTooShort
	}
	if binary.BigEndian.Uint16(buf[12:14]) != EtherTypeIPv4 {
		return v, ErrNotIPv4
	}
	v.l3Off = EthHeaderLen
	ip := buf[v.l3Off:]
	if len(ip) < IPv4HeaderLen {
		return v, ErrTooShort
	}
	if ip[0]>>4 != 4 {
		return v, ErrBadVersion
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return v, ErrTooShort
	}
	v.l4Off = v.l3Off + ihl
	v.proto = ip[9]
	l4 := buf[v.l4Off:]
	switch v.proto {
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return v, ErrTooShort
		}
		v.dataOff = v.l4Off + UDPHeaderLen
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return v, ErrTooShort
		}
		dataOff := int(l4[12]>>4) * 4
		if dataOff < TCPHeaderLen || len(l4) < dataOff {
			return v, ErrTooShort
		}
		v.dataOff = v.l4Off + dataOff
	default:
		return v, ErrBadProtocol
	}
	v.valid = true
	return v, nil
}

// Valid reports whether the view parsed a full L2–L4 IPv4 packet.
//
//sdnfv:hotpath
func (v *View) Valid() bool { return v.valid }

// Buf returns the underlying buffer.
//
//sdnfv:hotpath
func (v *View) Buf() []byte { return v.buf }

// SrcIP returns the IPv4 source address.
//
//sdnfv:hotpath
func (v *View) SrcIP() IP { return IP(binary.BigEndian.Uint32(v.buf[v.l3Off+12:])) }

// DstIP returns the IPv4 destination address.
//
//sdnfv:hotpath
func (v *View) DstIP() IP { return IP(binary.BigEndian.Uint32(v.buf[v.l3Off+16:])) }

// SetSrcIP rewrites the IPv4 source address (checksum must be refreshed
// with UpdateChecksums before transmit).
//
//sdnfv:hotpath
func (v *View) SetSrcIP(ip IP) { binary.BigEndian.PutUint32(v.buf[v.l3Off+12:], uint32(ip)) }

// SetDstIP rewrites the IPv4 destination address.
//
//sdnfv:hotpath
func (v *View) SetDstIP(ip IP) { binary.BigEndian.PutUint32(v.buf[v.l3Off+16:], uint32(ip)) }

// Proto returns the IPv4 protocol field.
//
//sdnfv:hotpath
func (v *View) Proto() uint8 { return v.proto }

// SrcPort returns the transport source port.
//
//sdnfv:hotpath
func (v *View) SrcPort() uint16 { return binary.BigEndian.Uint16(v.buf[v.l4Off:]) }

// DstPort returns the transport destination port.
//
//sdnfv:hotpath
func (v *View) DstPort() uint16 { return binary.BigEndian.Uint16(v.buf[v.l4Off+2:]) }

// SetSrcPort rewrites the transport source port.
//
//sdnfv:hotpath
func (v *View) SetSrcPort(p uint16) { binary.BigEndian.PutUint16(v.buf[v.l4Off:], p) }

// SetDstPort rewrites the transport destination port.
//
//sdnfv:hotpath
func (v *View) SetDstPort(p uint16) { binary.BigEndian.PutUint16(v.buf[v.l4Off+2:], p) }

// Payload returns the application payload bytes.
//
//sdnfv:hotpath
func (v *View) Payload() []byte { return v.buf[v.dataOff:] }

// FlowKey extracts the 5-tuple.
//
//sdnfv:hotpath
func (v *View) FlowKey() FlowKey {
	return FlowKey{
		SrcIP:   v.SrcIP(),
		DstIP:   v.DstIP(),
		SrcPort: v.SrcPort(),
		DstPort: v.DstPort(),
		Proto:   v.proto,
	}
}

// checksum computes the Internet checksum (RFC 1071) over b.
//
//sdnfv:hotpath
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// UpdateChecksums recomputes the IPv4 header checksum (transport checksums
// are treated as offloaded, as they would be to a NIC).
//
//sdnfv:hotpath
func (v *View) UpdateChecksums() {
	if !v.valid {
		return
	}
	hdr := v.buf[v.l3Off:v.l4Off]
	hdr[10], hdr[11] = 0, 0
	c := checksum(hdr)
	binary.BigEndian.PutUint16(hdr[10:], c)
}

// VerifyIPChecksum reports whether the IPv4 header checksum is correct.
//
//sdnfv:hotpath
func (v *View) VerifyIPChecksum() bool {
	if !v.valid {
		return false
	}
	return checksum(v.buf[v.l3Off:v.l4Off]) == 0
}

// Builder constructs packets into caller-provided buffers; used by traffic
// generators and tests.
type Builder struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IP
	SrcPort, DstPort uint16
	Proto            uint8
	TTL              uint8
}

// Build writes an Ethernet/IPv4/{TCP,UDP} packet carrying payload into buf
// and returns the total frame length. buf must be large enough
// (EthHeaderLen + IPv4HeaderLen + transport header + len(payload)).
func (b Builder) Build(buf []byte, payload []byte) (int, error) {
	var l4len int
	switch b.Proto {
	case ProtoUDP:
		l4len = UDPHeaderLen
	case ProtoTCP:
		l4len = TCPHeaderLen
	default:
		return 0, ErrBadProtocol
	}
	total := EthHeaderLen + IPv4HeaderLen + l4len + len(payload)
	if len(buf) < total {
		return 0, fmt.Errorf("packet: need %d bytes, have %d: %w", total, len(buf), ErrTooShort)
	}
	// Ethernet
	copy(buf[0:6], b.DstMAC[:])
	copy(buf[6:12], b.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:], EtherTypeIPv4)
	// IPv4
	ip := buf[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:], uint16(IPv4HeaderLen+l4len+len(payload)))
	binary.BigEndian.PutUint16(ip[4:], 0) // ident
	binary.BigEndian.PutUint16(ip[6:], 0) // flags/frag
	ttl := b.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip[8] = ttl
	ip[9] = b.Proto
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint32(ip[12:], uint32(b.SrcIP))
	binary.BigEndian.PutUint32(ip[16:], uint32(b.DstIP))
	binary.BigEndian.PutUint16(ip[10:], 0)
	c := checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:], c)
	// Transport
	l4 := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:], b.SrcPort)
	binary.BigEndian.PutUint16(l4[2:], b.DstPort)
	switch b.Proto {
	case ProtoUDP:
		binary.BigEndian.PutUint16(l4[4:], uint16(UDPHeaderLen+len(payload)))
		binary.BigEndian.PutUint16(l4[6:], 0) // checksum offloaded
	case ProtoTCP:
		binary.BigEndian.PutUint32(l4[4:], 0)       // seq
		binary.BigEndian.PutUint32(l4[8:], 0)       // ack
		l4[12] = (TCPHeaderLen / 4) << 4            // data offset
		l4[13] = 0x10                               // ACK flag
		binary.BigEndian.PutUint16(l4[14:], 0xffff) // window
		binary.BigEndian.PutUint16(l4[16:], 0)      // checksum offloaded
		binary.BigEndian.PutUint16(l4[18:], 0)      // urgent
	}
	copy(l4[l4len:], payload)
	return total, nil
}
