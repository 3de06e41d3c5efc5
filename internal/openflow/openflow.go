// Package openflow implements the SDN control channel between the NF
// Manager's Flow Controller thread and the SDN controller. It is an
// OpenFlow-inspired binary protocol with the two extensions §3.3 calls
// for:
//
//  1. the match's "input port" field carries a Service ID (rules are
//     scoped to the NF the packet just left, not only to physical ports);
//  2. a rule carries a list of actions plus a flag marking the list as a
//     parallel fan-out, with the first action being the default.
//
// It also adds the NF_MESSAGE type used to carry cross-layer messages
// (SkipMe / RequestMe / ChangeDefault / Message) up to the SDNFV
// Application (§3.4 "NF–SDN Coordination").
//
// Framing: every message is an 8-byte header (version, type, length, xid)
// followed by a type-specific body, all big-endian, mirroring OpenFlow's
// header layout. A Conn batches both directions: one Read fills its
// buffer with as many frames as the stream holds and Recv hands them out
// in turn, and a writer queues any number of frames into one reused
// buffer that Flush sends in a single Write.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// Version is the protocol version carried in every header.
const Version = 0x90 // "SDNFV" experimental space

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	TypeHello MsgType = iota
	TypeEchoRequest
	TypeEchoReply
	TypePacketIn  // data-path miss: header punted to controller
	TypeFlowMod   // rule installation
	TypeNFMessage // cross-layer NF message (SDNFV extension)
	TypeBarrierRequest
	TypeBarrierReply
	TypeError
	TypeFlowRemoved // datapath-initiated timeout eviction report (batched)
)

// String names the message type.
func (t MsgType) String() string {
	names := [...]string{
		"HELLO", "ECHO_REQUEST", "ECHO_REPLY", "PACKET_IN", "FLOW_MOD",
		"NF_MESSAGE", "BARRIER_REQUEST", "BARRIER_REPLY", "ERROR",
		"FLOW_REMOVED",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Header is the fixed 8-byte message prefix.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint16 // total message length including header
	XID     uint32 // transaction id
}

const headerLen = 8

// Errors returned by the codec.
var (
	ErrBadVersion = errors.New("openflow: bad protocol version")
	ErrTruncated  = errors.New("openflow: truncated message")
	ErrTooLarge   = errors.New("openflow: message exceeds 64KiB")
	ErrBadType    = errors.New("openflow: unknown message type")
	// ErrFieldRange reports a value that does not fit its wire field and
	// would otherwise decode as a different value.
	ErrFieldRange = errors.New("openflow: field value out of wire range")
)

// Message is any protocol message body.
type Message interface {
	// Type returns the wire type tag.
	Type() MsgType
	// encode appends the body encoding to dst, or fails with
	// ErrFieldRange.
	encode(dst []byte) ([]byte, error)
}

// Hello opens a channel. A datapath (NF host) announces its identity in
// the greeting so the controller can register the session under it
// before the first PacketIn arrives — the multi-switch handshake OpenFlow
// performs with FEATURES, folded into the HELLO for our fixed feature
// set. Zero means the peer stays anonymous (a controller greeting, or a
// legacy single-host manager).
type Hello struct {
	DatapathID uint64
}

// Type implements Message.
func (Hello) Type() MsgType { return TypeHello }
func (m Hello) encode(dst []byte) ([]byte, error) {
	if m.DatapathID == 0 {
		// Anonymous greetings stay body-less, byte-identical to the
		// pre-datapath frame.
		return dst, nil
	}
	return binary.BigEndian.AppendUint64(dst, m.DatapathID), nil
}

// Echo carries opaque probe bytes.
type Echo struct {
	Reply bool
	Data  []byte
}

// Type implements Message.
func (e Echo) Type() MsgType {
	if e.Reply {
		return TypeEchoReply
	}
	return TypeEchoRequest
}
func (e Echo) encode(dst []byte) ([]byte, error) { return append(dst, e.Data...), nil }

// PacketIn punts a flow-table miss to the controller: the scope where the
// miss occurred, the extracted 5-tuple, and a truncated header snapshot.
type PacketIn struct {
	Scope  flowtable.ServiceID
	Key    packet.FlowKey
	Buffer []byte // first bytes of the packet (header snapshot)
}

// Type implements Message.
func (PacketIn) Type() MsgType { return TypePacketIn }
func (p PacketIn) encode(dst []byte) ([]byte, error) {
	dst = be16(dst, uint16(p.Scope))
	dst = encodeKey(dst, p.Key)
	dst = be16(dst, uint16(len(p.Buffer)))
	return append(dst, p.Buffer...), nil
}

// FlowMod installs one rule in the host flow table. The rule's action list
// follows §3.3: first action is the default; Parallel marks a fan-out.
type FlowMod struct {
	Rule flowtable.Rule
}

// Type implements Message.
func (FlowMod) Type() MsgType { return TypeFlowMod }
func (m FlowMod) encode(dst []byte) ([]byte, error) {
	// OpenFlow-style lifecycle leases, millisecond granularity on the
	// wire, signed so the "never expire" opt-out (negative) survives the
	// round trip.
	idle, hard := m.Rule.IdleTimeout/time.Millisecond, m.Rule.HardTimeout/time.Millisecond
	if m.Rule.Priority != int(uint16(m.Rule.Priority)) || len(m.Rule.Actions) > 0xff ||
		idle != time.Duration(int32(idle)) || hard != time.Duration(int32(hard)) {
		return dst, fmt.Errorf("%w: FlowMod priority %d, %d actions, timeouts %v/%v",
			ErrFieldRange, m.Rule.Priority, len(m.Rule.Actions), m.Rule.IdleTimeout, m.Rule.HardTimeout)
	}
	dst = be16(dst, uint16(m.Rule.Scope))
	dst = encodeMatch(dst, m.Rule.Match)
	flags := byte(0)
	if m.Rule.Parallel {
		flags = 1
	}
	dst = append(dst, flags)
	dst = be16(dst, uint16(m.Rule.Priority))
	dst = be32(dst, uint32(int32(idle)))
	dst = be32(dst, uint32(int32(hard)))
	dst = append(dst, byte(len(m.Rule.Actions)))
	for _, a := range m.Rule.Actions {
		dst = append(dst, byte(a.Type))
		dst = be16(dst, uint16(a.Dest))
	}
	return dst, nil
}

// FlowRemoved reports rules the datapath evicted by idle/hard timeout —
// the flow-removed notification of §3.3's OpenFlow lineage, batched per
// sweep so a mass expiry costs one frame, not one per flow. Sent
// datapath→controller; never solicited, never answered.
type FlowRemoved struct {
	Removals []FlowRemovedEntry
}

// FlowRemovedEntry is one evicted rule in a FlowRemoved batch. Reason is
// 0 for idle timeout, 1 for hard timeout (matching
// control.FlowRemovedReason).
type FlowRemovedEntry struct {
	Scope  flowtable.ServiceID
	Match  flowtable.Match
	RuleID uint64
	Reason uint8
}

// MaxFlowRemovedEntries is the most entries one FlowRemoved frame can
// carry: each encodes to a fixed 25 bytes (scope 2, match 14, rule id 8,
// reason 1) after the 2-byte count, and a frame is at most 0xffff bytes.
// A sender splits a larger batch across frames.
const MaxFlowRemovedEntries = (0xffff - headerLen - 2) / 25

// Type implements Message.
func (FlowRemoved) Type() MsgType { return TypeFlowRemoved }
func (m FlowRemoved) encode(dst []byte) ([]byte, error) {
	dst = be16(dst, uint16(len(m.Removals)))
	for _, r := range m.Removals {
		dst = be16(dst, uint16(r.Scope))
		dst = encodeMatch(dst, r.Match)
		dst = be64(dst, r.RuleID)
		dst = append(dst, r.Reason)
	}
	return dst, nil
}

// NFMessage carries a cross-layer message from an NF up through the NF
// Manager to the SDNFV Application.
type NFMessage struct {
	Src flowtable.ServiceID
	Msg nf.Message
}

// Type implements Message.
func (NFMessage) Type() MsgType { return TypeNFMessage }
func (m NFMessage) encode(dst []byte) ([]byte, error) {
	dst = be16(dst, uint16(m.Src))
	dst = append(dst, byte(m.Msg.Kind))
	dst = encodeMatch(dst, m.Msg.Flows)
	dst = be16(dst, uint16(m.Msg.S))
	dst = be16(dst, uint16(m.Msg.T))
	dst = be16(dst, uint16(len(m.Msg.Key)))
	dst = append(dst, m.Msg.Key...)
	val := fmt.Sprint(m.Msg.Value)
	if m.Msg.Value == nil {
		val = ""
	}
	dst = be16(dst, uint16(len(val)))
	return append(dst, val...), nil
}

// Barrier is a synchronization fence; Reply echoes the request XID.
type Barrier struct{ Reply bool }

// Type implements Message.
func (b Barrier) Type() MsgType {
	if b.Reply {
		return TypeBarrierReply
	}
	return TypeBarrierRequest
}
func (Barrier) encode(dst []byte) ([]byte, error) { return dst, nil }

// Error codes carried by ErrorMsg. Wire clients map these back onto the
// control package's sentinel error taxonomy so errors.Is behaves the
// same for in-process and remote controllers.
const (
	// ErrCodeResolve is a generic rule-compilation failure.
	ErrCodeResolve uint16 = iota + 1
	// ErrCodeUnexpected reports a message type the peer does not serve.
	ErrCodeUnexpected
	// ErrCodeQueueFull maps to control.ErrQueueFull.
	ErrCodeQueueFull
	// ErrCodeNoCompiler maps to control.ErrNoCompiler.
	ErrCodeNoCompiler
	// ErrCodeStopped maps to control.ErrStopped.
	ErrCodeStopped
	// ErrCodeRejected maps to control.ErrRejected (northbound policy
	// refused a cross-layer message).
	ErrCodeRejected
	// ErrCodeInvalid maps to control.ErrInvalidMessage.
	ErrCodeInvalid
)

// ErrorMsg reports a protocol-level failure.
type ErrorMsg struct {
	Code uint16
	Text string
}

// Type implements Message.
func (ErrorMsg) Type() MsgType { return TypeError }
func (e ErrorMsg) encode(dst []byte) ([]byte, error) {
	dst = be16(dst, e.Code)
	dst = be16(dst, uint16(len(e.Text)))
	return append(dst, e.Text...), nil
}

// --- wire helpers ---

func be16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }
func be32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func be64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func encodeKey(dst []byte, k packet.FlowKey) []byte {
	dst = be32(dst, uint32(k.SrcIP))
	dst = be32(dst, uint32(k.DstIP))
	dst = be16(dst, k.SrcPort)
	dst = be16(dst, k.DstPort)
	return append(dst, k.Proto)
}

func decodeKey(b []byte) (packet.FlowKey, []byte, error) {
	if len(b) < 13 {
		return packet.FlowKey{}, nil, ErrTruncated
	}
	k := packet.FlowKey{
		SrcIP:   packet.IP(binary.BigEndian.Uint32(b)),
		DstIP:   packet.IP(binary.BigEndian.Uint32(b[4:])),
		SrcPort: binary.BigEndian.Uint16(b[8:]),
		DstPort: binary.BigEndian.Uint16(b[10:]),
		Proto:   b[12],
	}
	return k, b[13:], nil
}

// encodeMatch writes the wildcard mask (flowtable.MatchField bits) and
// the key; wildcard fields are zero in both.
func encodeMatch(dst []byte, m flowtable.Match) []byte {
	return encodeKey(append(dst, byte(m.Mask)), m.Key)
}

func decodeMatch(b []byte) (flowtable.Match, []byte, error) {
	if len(b) < 1 {
		return flowtable.Match{}, nil, ErrTruncated
	}
	k, rest, err := decodeKey(b[1:])
	return flowtable.NewMatch(k, flowtable.MatchField(b[0])), rest, err
}

// AppendFrame appends msg's wire frame, with transaction id xid, to dst:
// the header and body are encoded in place and the length back-patched.
// A frame over 64 KiB fails with ErrTooLarge, and a value that does not
// fit its wire field with ErrFieldRange; on error dst comes back
// unchanged.
func AppendFrame(dst []byte, msg Message, xid uint32) ([]byte, error) {
	start := len(dst)
	dst, err := msg.encode(be32(append(dst, Version, byte(msg.Type()), 0, 0), xid))
	if err != nil {
		return dst[:start], err
	}
	total := len(dst) - start
	if total > 0xffff {
		return dst[:start], ErrTooLarge
	}
	binary.BigEndian.PutUint16(dst[start+2:], uint16(total))
	return dst, nil
}

// Encode serializes msg with the given transaction id into a new frame.
func Encode(msg Message, xid uint32) ([]byte, error) {
	return AppendFrame(make([]byte, 0, 64), msg, xid)
}

// Decode parses one complete frame produced by Encode. A PacketIn,
// FlowMod or FlowRemoved comes back as a *PacketIn, *FlowMod or
// *FlowRemoved; every other message as a value.
func Decode(frame []byte) (Message, Header, error) { return new(decoder).decode(frame) }

// decoder owns the storage that the per-flow messages decode into, so a
// Conn's reader hands out PacketIns, FlowMods and FlowRemoveds without
// boxing a fresh value, or growing a fresh entry list, per frame. Each
// decode overwrites the previous one's.
type decoder struct {
	packetIn    PacketIn
	flowMod     FlowMod
	flowRemoved FlowRemoved
}

func (d *decoder) decode(frame []byte) (Message, Header, error) {
	var h Header
	if len(frame) < headerLen {
		return nil, h, ErrTruncated
	}
	h.Version = frame[0]
	h.Type = MsgType(frame[1])
	h.Length = binary.BigEndian.Uint16(frame[2:])
	h.XID = binary.BigEndian.Uint32(frame[4:])
	if h.Version != Version {
		return nil, h, ErrBadVersion
	}
	if int(h.Length) != len(frame) {
		return nil, h, ErrTruncated
	}
	b := frame[headerLen:]
	switch h.Type {
	case TypeHello:
		var hello Hello
		if len(b) >= 8 {
			hello.DatapathID = binary.BigEndian.Uint64(b)
		}
		return hello, h, nil
	case TypeEchoRequest:
		return Echo{Data: append([]byte(nil), b...)}, h, nil
	case TypeEchoReply:
		return Echo{Reply: true, Data: append([]byte(nil), b...)}, h, nil
	case TypePacketIn:
		return d.decodePacketIn(b, h)
	case TypeFlowMod:
		return d.decodeFlowMod(b, h)
	case TypeNFMessage:
		return decodeNFMessage(b, h)
	case TypeBarrierRequest:
		return Barrier{}, h, nil
	case TypeBarrierReply:
		return Barrier{Reply: true}, h, nil
	case TypeError:
		return decodeError(b, h)
	case TypeFlowRemoved:
		return d.decodeFlowRemoved(b, h)
	default:
		return nil, h, ErrBadType
	}
}

func (d *decoder) decodeFlowRemoved(b []byte, h Header) (Message, Header, error) {
	if len(b) < 2 {
		return nil, h, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	m := &d.flowRemoved
	m.Removals = m.Removals[:0]
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, h, ErrTruncated
		}
		var e FlowRemovedEntry
		e.Scope = flowtable.ServiceID(binary.BigEndian.Uint16(b))
		var err error
		e.Match, b, err = decodeMatch(b[2:])
		if err != nil {
			return nil, h, err
		}
		if len(b) < 9 {
			return nil, h, ErrTruncated
		}
		e.RuleID = binary.BigEndian.Uint64(b)
		e.Reason = b[8]
		b = b[9:]
		m.Removals = append(m.Removals, e)
	}
	return m, h, nil
}

func (d *decoder) decodePacketIn(b []byte, h Header) (Message, Header, error) {
	if len(b) < 2 {
		return nil, h, ErrTruncated
	}
	p := &d.packetIn
	p.Scope = flowtable.ServiceID(binary.BigEndian.Uint16(b))
	var err error
	p.Key, b, err = decodeKey(b[2:])
	if err != nil {
		return nil, h, err
	}
	if len(b) < 2 {
		return nil, h, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, h, ErrTruncated
	}
	p.Buffer = append(p.Buffer[:0], b[:n]...)
	return p, h, nil
}

// decodeFlowMod gives each rule a fresh Actions slice: the receiver
// keeps the rule after the next decode.
func (d *decoder) decodeFlowMod(b []byte, h Header) (Message, Header, error) {
	if len(b) < 2 {
		return nil, h, ErrTruncated
	}
	m := &d.flowMod
	m.Rule = flowtable.Rule{Scope: flowtable.ServiceID(binary.BigEndian.Uint16(b))}
	var err error
	m.Rule.Match, b, err = decodeMatch(b[2:])
	if err != nil {
		return nil, h, err
	}
	if len(b) < 12 {
		return nil, h, ErrTruncated
	}
	m.Rule.Parallel = b[0]&1 == 1
	m.Rule.Priority = int(binary.BigEndian.Uint16(b[1:]))
	m.Rule.IdleTimeout = time.Duration(int32(binary.BigEndian.Uint32(b[3:]))) * time.Millisecond
	m.Rule.HardTimeout = time.Duration(int32(binary.BigEndian.Uint32(b[7:]))) * time.Millisecond
	n := int(b[11])
	b = b[12:]
	if len(b) < 3*n {
		return nil, h, ErrTruncated
	}
	m.Rule.Actions = make([]flowtable.Action, n)
	for i := range m.Rule.Actions {
		m.Rule.Actions[i] = flowtable.Action{
			Type: flowtable.ActionType(b[3*i]),
			Dest: flowtable.ServiceID(binary.BigEndian.Uint16(b[3*i+1:])),
		}
	}
	return m, h, nil
}

func decodeNFMessage(b []byte, h Header) (Message, Header, error) {
	if len(b) < 3 {
		return nil, h, ErrTruncated
	}
	var m NFMessage
	m.Src = flowtable.ServiceID(binary.BigEndian.Uint16(b))
	m.Msg.Kind = nf.MsgKind(b[2])
	var err error
	m.Msg.Flows, b, err = decodeMatch(b[3:])
	if err != nil {
		return nil, h, err
	}
	if len(b) < 6 {
		return nil, h, ErrTruncated
	}
	m.Msg.S = flowtable.ServiceID(binary.BigEndian.Uint16(b))
	m.Msg.T = flowtable.ServiceID(binary.BigEndian.Uint16(b[2:]))
	klen := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < klen+2 {
		return nil, h, ErrTruncated
	}
	m.Msg.Key = string(b[:klen])
	b = b[klen:]
	vlen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < vlen {
		return nil, h, ErrTruncated
	}
	if vlen > 0 {
		m.Msg.Value = string(b[:vlen])
	}
	return m, h, nil
}

func decodeError(b []byte, h Header) (Message, Header, error) {
	if len(b) < 4 {
		return nil, h, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[2:]))
	if len(b) < 4+n {
		return nil, h, ErrTruncated
	}
	return ErrorMsg{Code: binary.BigEndian.Uint16(b), Text: string(b[4 : 4+n])}, h, nil
}

// Conn frames messages over an io.ReadWriter (normally a net.Conn). Recv
// decodes frames out of one owned read buffer that each Read fills as far
// as the stream allows; Queue encodes frames into one owned write buffer
// and Flush sends them in a single Write. It is not safe for concurrent
// writers; callers serialize sends.
type Conn struct {
	rw         io.ReadWriter
	xid        uint32
	rbuf       []byte
	rpos, rend int // rbuf[rpos:rend] is read but not yet decoded
	dec        decoder
	wbuf       []byte
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{rw: rw, rbuf: make([]byte, 0xffff)}
}

// Send writes msg under the next transaction id and returns that id.
func (c *Conn) Send(msg Message) (uint32, error) {
	c.xid++
	return c.xid, c.SendXID(msg, c.xid)
}

// SendXID writes msg with an explicit transaction id (used for replies
// that must echo the request XID).
func (c *Conn) SendXID(msg Message, xid uint32) error {
	if err := c.Queue(msg, xid); err != nil {
		return err
	}
	return c.Flush()
}

// Queue appends msg's frame to the pending batch without writing it. A
// frame that fails to encode is dropped alone; the frames queued before
// it stay.
func (c *Conn) Queue(msg Message, xid uint32) error {
	var err error
	c.wbuf, err = AppendFrame(c.wbuf, msg, xid)
	return err
}

// Queued returns the size of the pending batch in bytes: a mark that
// Unqueue rolls the batch back to.
func (c *Conn) Queued() int { return len(c.wbuf) }

// Unqueue drops every frame queued after mark, a value Queued returned
// since the last Flush.
func (c *Conn) Unqueue(mark int) { c.wbuf = c.wbuf[:mark] }

// Flush writes every queued frame in one Write and empties the batch.
// An empty batch makes no Write.
func (c *Conn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.rw.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// Buffered reports whether a whole frame is buffered, so that the next
// Recv returns without a Read.
func (c *Conn) Buffered() bool {
	buf := c.rbuf[c.rpos:c.rend]
	return len(buf) >= headerLen && len(buf) >= int(binary.BigEndian.Uint16(buf[2:]))
}

// Recv decodes the next frame. When no whole frame is buffered it moves
// the partial one to the front of the buffer, which then holds any frame,
// and refills it with one Read. A message copies out every byte it keeps,
// so the buffer is free for reuse once Recv returns. A PacketIn, FlowMod
// or FlowRemoved comes back as a *PacketIn, *FlowMod or *FlowRemoved that
// points into storage the Conn owns, its Removals included: it is valid
// until the next Recv, apart from the FlowMod's Actions, which are the
// caller's to keep. A stream that ends
// inside a frame fails with io.ErrUnexpectedEOF; io.EOF comes only at a
// frame boundary.
func (c *Conn) Recv() (Message, Header, error) {
	for {
		buf := c.rbuf[c.rpos:c.rend]
		if len(buf) >= headerLen {
			length := int(binary.BigEndian.Uint16(buf[2:]))
			if length < headerLen {
				return nil, Header{}, ErrTruncated
			}
			if len(buf) >= length {
				c.rpos += length
				return c.dec.decode(buf[:length])
			}
		}
		if c.rpos > 0 {
			c.rend, c.rpos = copy(c.rbuf, buf), 0
		}
		n, err := c.rw.Read(c.rbuf[c.rend:])
		c.rend += n
		if n == 0 && err != nil {
			if errors.Is(err, io.EOF) && c.rend > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, Header{}, err
		}
	}
}
