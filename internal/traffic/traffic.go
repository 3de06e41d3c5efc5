// Package traffic builds workloads for both execution engines: raw frames
// for the real data plane (PktGen-DPDK's role in the paper) and arrival
// processes for the discrete-event simulator. It also provides the
// application payloads the use cases depend on: HTTP video/non-video
// responses, IDS exploit strings, and memcached get requests.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
)

// FlowSpec describes one synthetic flow.
type FlowSpec struct {
	Key packet.FlowKey
	// FrameBytes is the on-wire frame size (Ethernet header included).
	FrameBytes int
	// RateBps is the offered load in bits/second.
	RateBps float64
}

// Flow builds the k-th synthetic flow in a deterministic sequence; flows
// cycle through distinct source ports and source IPs.
func Flow(k int, frameBytes int, rateBps float64) FlowSpec {
	return FlowSpec{
		Key: packet.FlowKey{
			SrcIP:   packet.IPv4(10, 1, byte(k>>8), byte(k)),
			DstIP:   packet.IPv4(10, 2, 0, 1),
			SrcPort: uint16(1024 + k%50000),
			DstPort: 80,
			Proto:   packet.ProtoUDP,
		},
		FrameBytes: frameBytes,
		RateBps:    rateBps,
	}
}

// Factory builds raw frames into reusable buffers.
type Factory struct {
	buf []byte
}

// NewFactory returns a factory with a 2 KiB scratch frame.
func NewFactory() *Factory { return &Factory{buf: make([]byte, 2048)} }

// timestampMagic marks payloads carrying an RTT timestamp.
const timestampMagic = 0x534e4656 // "SNFV"

// Frame builds a frame for spec whose payload is padded to reach
// spec.FrameBytes and stamped with nowNanos for RTT measurement. A frame
// larger than the factory's 2 KiB scratch is refused with an error. The
// returned slice is valid until the next Frame call.
func (f *Factory) Frame(spec FlowSpec, nowNanos int64) ([]byte, error) {
	hdr := packet.EthHeaderLen + packet.IPv4HeaderLen
	switch spec.Key.Proto {
	case packet.ProtoUDP:
		hdr += packet.UDPHeaderLen
	case packet.ProtoTCP:
		hdr += packet.TCPHeaderLen
	}
	payloadLen := max(spec.FrameBytes-hdr, 12)
	if hdr+payloadLen > len(f.buf) {
		return nil, fmt.Errorf("traffic: %d-byte frame exceeds the %d-byte scratch: %w",
			hdr+payloadLen, len(f.buf), packet.ErrTooShort)
	}
	// The payload is stamped where the frame carries it, so Build's
	// payload copy is a copy onto itself.
	payload := f.buf[hdr : hdr+payloadLen]
	binary.BigEndian.PutUint32(payload, timestampMagic)
	binary.BigEndian.PutUint64(payload[4:], uint64(nowNanos))
	b := packet.Builder{
		SrcIP: spec.Key.SrcIP, DstIP: spec.Key.DstIP,
		SrcPort: spec.Key.SrcPort, DstPort: spec.Key.DstPort,
		Proto: spec.Key.Proto,
	}
	n, err := b.Build(f.buf, payload)
	if err != nil {
		return nil, err
	}
	return f.buf[:n], nil
}

// PayloadFrame builds a frame for spec carrying the given payload bytes
// (no timestamp, no padding).
func (f *Factory) PayloadFrame(spec FlowSpec, payload []byte) ([]byte, error) {
	b := packet.Builder{
		SrcIP: spec.Key.SrcIP, DstIP: spec.Key.DstIP,
		SrcPort: spec.Key.SrcPort, DstPort: spec.Key.DstPort,
		Proto: spec.Key.Proto,
	}
	n, err := b.Build(f.buf, payload)
	if err != nil {
		return nil, err
	}
	return f.buf[:n], nil
}

// ExtractTimestamp recovers the RTT timestamp from a frame produced by
// Frame; ok is false for foreign payloads.
func ExtractTimestamp(frame []byte) (int64, bool) {
	v, err := packet.Parse(frame)
	if err != nil {
		return 0, false
	}
	p := v.Payload()
	if len(p) < 12 || binary.BigEndian.Uint32(p) != timestampMagic {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(p[4:])), true
}

// HTTPVideoResponse returns an HTTP response head marking video content
// (what the Video Detector looks for).
func HTTPVideoResponse(bitrateKbps int) []byte {
	return []byte(fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\nX-Bitrate-Kbps: %d\r\nContent-Length: 1048576\r\n\r\n",
		bitrateKbps))
}

// HTTPPlainResponse returns a non-video HTTP response head.
func HTTPPlainResponse() []byte {
	return []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 512\r\n\r\n<html>ok</html>")
}

// ExploitPayload returns an HTTP request carrying one of the default IDS
// signatures.
func ExploitPayload() []byte {
	return []byte("GET /search?q=1' UNION SELECT password FROM users-- HTTP/1.1\r\nHost: x\r\n\r\n")
}

// BenignPayload returns an innocuous HTTP request.
func BenignPayload() []byte {
	return []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n")
}

// MemcachedRequest builds a UDP memcached get frame for the given key
// toward the proxy address.
func MemcachedRequest(f *Factory, client packet.IP, clientPort uint16, proxy packet.IP, key string) ([]byte, error) {
	var body [512]byte
	n := nfs.BuildMemcachedGet(body[:], uint16(clientPort), key)
	if n == 0 {
		return nil, fmt.Errorf("traffic: key %q too long", key)
	}
	spec := FlowSpec{Key: packet.FlowKey{
		SrcIP: client, DstIP: proxy,
		SrcPort: clientPort, DstPort: 11211,
		Proto: packet.ProtoUDP,
	}}
	return f.PayloadFrame(spec, body[:n])
}

// ZipfKeys yields memcached-style keys with Zipfian popularity.
type ZipfKeys struct {
	z *rand.Zipf
}

// NewZipfKeys builds a generator over n keys with skew s (>1).
func NewZipfKeys(seed int64, s float64, n uint64) *ZipfKeys {
	rng := rand.New(rand.NewSource(seed))
	if s <= 1 {
		s = 1.1
	}
	if n < 2 {
		n = 2
	}
	return &ZipfKeys{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Next returns the next key.
func (z *ZipfKeys) Next() string {
	return fmt.Sprintf("key:%08d", z.z.Uint64())
}

// OnOffProfile describes a rate that switches between levels at given
// times — used for the ant/elephant phase changes of Fig. 8 and the DDoS
// ramp of Fig. 9.
type OnOffProfile struct {
	// Times are breakpoints in seconds (ascending); Rates has one more
	// entry than Times is not required — RateAt uses the last rate at or
	// before t.
	Times []float64
	Rates []float64
}

// RateAt returns the profile's rate at time t.
func (p OnOffProfile) RateAt(t float64) float64 {
	r := 0.0
	for i, bt := range p.Times {
		if t >= bt {
			r = p.Rates[i]
		}
	}
	return r
}

// RampProfile returns a linearly interpolated rate between breakpoints —
// the DDoS experiment's gradually rising attack.
type RampProfile struct {
	Times []float64
	Rates []float64
}

// RateAt linearly interpolates the rate at t (clamped at the ends).
func (p RampProfile) RateAt(t float64) float64 {
	if len(p.Times) == 0 {
		return 0
	}
	if t <= p.Times[0] {
		return p.Rates[0]
	}
	for i := 1; i < len(p.Times); i++ {
		if t <= p.Times[i] {
			f := (t - p.Times[i-1]) / (p.Times[i] - p.Times[i-1])
			return p.Rates[i-1] + f*(p.Rates[i]-p.Rates[i-1])
		}
	}
	return p.Rates[len(p.Rates)-1]
}
