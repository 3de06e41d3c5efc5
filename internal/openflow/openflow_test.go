package openflow

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

func roundtrip(t *testing.T, msg Message) Message {
	t.Helper()
	frame, err := Encode(msg, 7)
	if err != nil {
		t.Fatalf("Encode(%v): %v", msg, err)
	}
	got, hdr, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if hdr.XID != 7 || hdr.Type != msg.Type() || int(hdr.Length) != len(frame) {
		t.Fatalf("header = %+v", hdr)
	}
	return got
}

func TestRoundtripSimpleMessages(t *testing.T) {
	for _, msg := range []Message{
		Hello{},
		Hello{DatapathID: 0xabc}, // datapath-announcing greeting
		Echo{Data: []byte("ping")},
		Echo{Reply: true, Data: []byte("pong")},
		Barrier{},
		Barrier{Reply: true},
		ErrorMsg{Code: 3, Text: "boom"},
	} {
		got := roundtrip(t, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("roundtrip %T: got %+v want %+v", msg, got, msg)
		}
	}
}

func TestRoundtripPacketIn(t *testing.T) {
	msg := PacketIn{
		Scope: flowtable.Port(1),
		Key: packet.FlowKey{
			SrcIP: packet.IPv4(1, 2, 3, 4), DstIP: packet.IPv4(5, 6, 7, 8),
			SrcPort: 1234, DstPort: 80, Proto: 17,
		},
		Buffer: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	got := roundtrip(t, msg).(PacketIn)
	if got.Scope != msg.Scope || got.Key != msg.Key || !bytes.Equal(got.Buffer, msg.Buffer) {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundtripFlowMod(t *testing.T) {
	src := packet.IPv4(9, 9, 9, 9)
	msg := FlowMod{Rule: flowtable.Rule{
		Scope:       flowtable.ServiceID(12),
		Match:       flowtable.Match{SrcIP: &src},
		Actions:     []flowtable.Action{flowtable.Forward(13), flowtable.Out(1), flowtable.Drop()},
		Parallel:    true,
		Priority:    42,
		IdleTimeout: 1500 * time.Millisecond,
		HardTimeout: time.Minute,
	}}
	got := roundtrip(t, msg).(FlowMod)
	if got.Rule.Scope != msg.Rule.Scope || !got.Rule.Parallel || got.Rule.Priority != 42 {
		t.Fatalf("got %+v", got.Rule)
	}
	if len(got.Rule.Actions) != 3 || got.Rule.Actions[1] != flowtable.Out(1) {
		t.Fatalf("actions = %v", got.Rule.Actions)
	}
	if got.Rule.Match.SrcIP == nil || *got.Rule.Match.SrcIP != src || got.Rule.Match.DstIP != nil {
		t.Fatalf("match = %+v", got.Rule.Match)
	}
	if got.Rule.IdleTimeout != msg.Rule.IdleTimeout || got.Rule.HardTimeout != msg.Rule.HardTimeout {
		t.Fatalf("timeouts = %v/%v", got.Rule.IdleTimeout, got.Rule.HardTimeout)
	}
}

// TestFlowModTimeoutOptOutSurvivesWire: the negative never-expire
// opt-out must round-trip (millisecond precision, signed on the wire).
func TestFlowModTimeoutOptOutSurvivesWire(t *testing.T) {
	msg := FlowMod{Rule: flowtable.Rule{
		Scope:       3,
		Actions:     []flowtable.Action{flowtable.Drop()},
		IdleTimeout: -time.Millisecond,
		HardTimeout: -time.Millisecond,
	}}
	got := roundtrip(t, msg).(FlowMod)
	if got.Rule.IdleTimeout >= 0 || got.Rule.HardTimeout >= 0 {
		t.Fatalf("opt-out lost: %v/%v", got.Rule.IdleTimeout, got.Rule.HardTimeout)
	}
}

func TestRoundtripFlowRemoved(t *testing.T) {
	key := packet.FlowKey{
		SrcIP: packet.IPv4(1, 2, 3, 4), DstIP: packet.IPv4(5, 6, 7, 8),
		SrcPort: 1234, DstPort: 80, Proto: 17,
	}
	msg := FlowRemoved{Removals: []FlowRemovedEntry{
		{Scope: 9, Match: flowtable.ExactMatch(key), RuleID: 0xdeadbeefcafe, Reason: 0},
		{Scope: flowtable.Port(1), Match: flowtable.MatchSrcIP(key.SrcIP), RuleID: 7, Reason: 1},
	}}
	got := roundtrip(t, msg).(FlowRemoved)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v want %+v", got, msg)
	}
}

// TestFlowRemovedFrameLimit pins MaxFlowRemovedEntries to the codec: a
// full frame encodes, one entry more does not.
func TestFlowRemovedFrameLimit(t *testing.T) {
	entry := FlowRemovedEntry{Scope: 9, Match: flowtable.MatchAll, RuleID: 1}
	full := make([]FlowRemovedEntry, MaxFlowRemovedEntries+1)
	for i := range full {
		full[i] = entry
	}
	if _, err := Encode(FlowRemoved{Removals: full[:MaxFlowRemovedEntries]}, 1); err != nil {
		t.Fatalf("%d entries: %v", MaxFlowRemovedEntries, err)
	}
	if _, err := Encode(FlowRemoved{Removals: full}, 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d entries: err = %v, want ErrTooLarge", len(full), err)
	}
}

func TestRoundtripNFMessage(t *testing.T) {
	msg := NFMessage{
		Src: 50,
		Msg: nf.Message{
			Kind:  nf.MsgChangeDefault,
			Flows: flowtable.MatchSrcIP(packet.IPv4(10, 0, 0, 1)),
			S:     50, T: 51,
			Key: "alarm", Value: "high",
		},
	}
	got := roundtrip(t, msg).(NFMessage)
	if got.Src != 50 || got.Msg.Kind != nf.MsgChangeDefault || got.Msg.S != 50 || got.Msg.T != 51 {
		t.Fatalf("got %+v", got)
	}
	if got.Msg.Key != "alarm" || got.Msg.Value != "high" {
		t.Fatalf("kv = %q %v", got.Msg.Key, got.Msg.Value)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: %v", err)
	}
	frame, _ := Encode(Hello{}, 1)
	frame[0] = 0x01 // wrong version
	if _, _, err := Decode(frame); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	for _, mt := range []MsgType{TypeFlowRemoved + 1, 0xEE} { // unknown types
		frame, _ = Encode(Hello{}, 1)
		frame[1] = byte(mt)
		if _, _, err := Decode(frame); !errors.Is(err, ErrBadType) {
			t.Fatalf("bad type %d: %v", mt, err)
		}
	}
	frame, _ = Encode(Echo{Data: []byte("abc")}, 1)
	if _, _, err := Decode(frame[:len(frame)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated body: %v", err)
	}
}

func TestConnFraming(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if _, err := c.Send(Echo{Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(Barrier{}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	m1, h1, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m1.(Echo); !ok || h1.XID != 1 {
		t.Fatalf("first = %T xid=%d", m1, h1.XID)
	}
	m2, h2, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.(Barrier); !ok || h2.XID != 2 {
		t.Fatalf("second = %T xid=%d", m2, h2.XID)
	}
}

// Property: FlowMod roundtrips preserve every action and wildcard shape.
func TestFlowModRoundtripProperty(t *testing.T) {
	f := func(scope uint16, nActs uint8, prio uint8, parallel bool, wildMask uint8, idleMs int32, hardMs int32) bool {
		r := flowtable.Rule{
			Scope:       flowtable.ServiceID(scope),
			Parallel:    parallel,
			Priority:    int(prio),
			IdleTimeout: time.Duration(idleMs) * time.Millisecond,
			HardTimeout: time.Duration(hardMs) * time.Millisecond,
		}
		if wildMask&1 != 0 {
			ip := packet.IPv4(1, 2, 3, 4)
			r.Match.SrcIP = &ip
		}
		if wildMask&2 != 0 {
			p := uint16(99)
			r.Match.DstPort = &p
		}
		n := int(nActs%5) + 1
		for i := 0; i < n; i++ {
			r.Actions = append(r.Actions, flowtable.Forward(flowtable.ServiceID(i+1)))
		}
		frame, err := Encode(FlowMod{Rule: r}, 1)
		if err != nil {
			return false
		}
		got, _, err := Decode(frame)
		if err != nil {
			return false
		}
		fm := got.(FlowMod)
		if fm.Rule.Scope != r.Scope || fm.Rule.Parallel != r.Parallel || len(fm.Rule.Actions) != n {
			return false
		}
		if fm.Rule.IdleTimeout != r.IdleTimeout || fm.Rule.HardTimeout != r.HardTimeout {
			return false
		}
		return fm.Rule.Match.Specificity() == r.Match.Specificity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// exemplarFor returns a representative non-trivial message for every
// wire type; TestRoundtripEveryMessageType fails when a new MsgType has
// no exemplar, so coverage cannot silently rot.
func exemplarFor(t MsgType) Message {
	key := packet.FlowKey{
		SrcIP: packet.IPv4(1, 2, 3, 4), DstIP: packet.IPv4(5, 6, 7, 8),
		SrcPort: 1234, DstPort: 80, Proto: 17,
	}
	switch t {
	case TypeHello:
		return Hello{DatapathID: 0x42}
	case TypeEchoRequest:
		return Echo{Data: []byte("ping")}
	case TypeEchoReply:
		return Echo{Reply: true, Data: []byte("pong")}
	case TypePacketIn:
		return PacketIn{Scope: flowtable.Port(2), Key: key, Buffer: []byte{1, 2, 3}}
	case TypeFlowMod:
		return FlowMod{Rule: flowtable.Rule{
			Scope:    9,
			Match:    flowtable.ExactMatch(key),
			Actions:  []flowtable.Action{flowtable.Forward(10), flowtable.Drop()},
			Parallel: true,
			Priority: 3,
		}}
	case TypeNFMessage:
		return NFMessage{Src: 7, Msg: nf.Message{
			Kind: nf.MsgChangeDefault, Flows: flowtable.ExactMatch(key), S: 7, T: 8,
			Key: "k", Value: "v",
		}}
	case TypeBarrierRequest:
		return Barrier{}
	case TypeBarrierReply:
		return Barrier{Reply: true}
	case TypeError:
		return ErrorMsg{Code: ErrCodeQueueFull, Text: "full"}
	case TypeFlowRemoved:
		return FlowRemoved{Removals: []FlowRemovedEntry{
			{Scope: 9, Match: flowtable.ExactMatch(key), RuleID: 0xbeef, Reason: 1},
		}}
	default:
		return nil
	}
}

// TestRoundtripEveryMessageType encode/decodes one exemplar per wire
// type and requires structural equality.
func TestRoundtripEveryMessageType(t *testing.T) {
	for mt := TypeHello; mt <= TypeFlowRemoved; mt++ {
		msg := exemplarFor(mt)
		if msg == nil {
			t.Fatalf("no exemplar for %s — extend exemplarFor alongside the protocol", mt)
		}
		if msg.Type() != mt {
			t.Fatalf("exemplar for %s reports type %s", mt, msg.Type())
		}
		got := roundtrip(t, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("roundtrip %s: got %+v want %+v", mt, got, msg)
		}
	}
}

// readerConn adapts a read-only byte stream to the Conn's ReadWriter.
type readerConn struct {
	r io.Reader
}

func (c readerConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c readerConn) Write(p []byte) (int, error) { return len(p), nil }

// chunkReader returns at most k bytes per Read, so frames arrive split
// at arbitrary points.
type chunkReader struct {
	r io.Reader
	k int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.k)]) }

// recvAll decodes up to 64 frames from r and returns them with the error
// that ended the stream.
func recvAll(r io.Reader) ([]Message, []Header, error) {
	c := NewConn(readerConn{r: r})
	var msgs []Message
	var hdrs []Header
	for i := 0; i < 64; i++ {
		msg, hdr, err := c.Recv()
		if err != nil {
			return msgs, hdrs, err
		}
		msgs, hdrs = append(msgs, msg), append(hdrs, hdr)
	}
	return msgs, hdrs, nil
}

// FuzzConnRecv throws arbitrary byte streams at the framing layer,
// delivered at most k bytes per Read: Recv must terminate with a clean
// error — never panic, hang, or read past the declared frame — on
// truncated headers, lying length fields, and unknown types, and where
// the reads split the stream must not change what it decodes.
func FuzzConnRecv(f *testing.F) {
	valid, _ := Encode(PacketIn{Scope: flowtable.Port(1), Buffer: []byte{1}}, 3)
	f.Add(valid, uint8(1))
	f.Add(valid[:3], uint8(1))                                              // truncated header
	f.Add(append(valid, 0xff), uint8(7))                                    // trailing garbage
	f.Add([]byte{Version, 0xEE, 0x00, 0x08, 0, 0, 0, 1}, uint8(3))          // unknown type
	f.Add([]byte{Version, 0x00, 0xff, 0xff, 0, 0, 0, 1}, uint8(5))          // length says 64KiB, body absent
	f.Add([]byte{Version, 0x05, 0x00, 0x04, 0, 0, 0, 1, 9, 9, 9}, uint8(2)) // length < header size
	two := append(append([]byte{}, valid...), valid...)
	f.Add(two, uint8(0))            // back-to-back frames, one Read
	f.Add(two, uint8(len(valid)+1)) // second frame split across Reads
	removed, _ := Encode(FlowRemoved{Removals: []FlowRemovedEntry{
		{Scope: flowtable.Port(2), RuleID: 99, Reason: 1},
	}}, 5)
	f.Add(removed, uint8(4))
	f.Add(removed[:len(removed)-4], uint8(9)) // removal entry cut mid-ruleID
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		msgs, hdrs, err := recvAll(bytes.NewReader(data))
		for i, msg := range msgs {
			if msg == nil {
				t.Fatalf("nil message with nil error (hdr %+v)", hdrs[i])
			}
			if int(hdrs[i].Length) < 8 {
				t.Fatalf("accepted frame with impossible length %d", hdrs[i].Length)
			}
			// A decoded message must re-encode within the wire limit.
			if _, err := Encode(msg, hdrs[i].XID); err != nil {
				t.Fatalf("decoded message fails to re-encode: %v", err)
			}
		}
		if k == 0 {
			return // the whole-buffer read above is the k = ∞ case
		}
		split, splitHdrs, splitErr := recvAll(chunkReader{r: bytes.NewReader(data), k: int(k)})
		if !reflect.DeepEqual(split, msgs) || !reflect.DeepEqual(splitHdrs, hdrs) {
			t.Fatalf("%d-byte reads decoded %d frames %+v, whole read %d frames %+v", k, len(split), splitHdrs, len(msgs), hdrs)
		}
		if !errors.Is(splitErr, err) || !errors.Is(err, splitErr) {
			t.Fatalf("%d-byte reads ended with %v, whole read with %v", k, splitErr, err)
		}
	})
}

// TestConnRecvSplitReads feeds a stream of one frame per message type
// through readers that split it at every byte or halve each Read: every
// frame decodes as from one read, the stream's end at a frame boundary
// is io.EOF, and an end inside a header or a body is
// io.ErrUnexpectedEOF.
func TestConnRecvSplitReads(t *testing.T) {
	var stream []byte
	var want []Message
	for mt := TypeHello; mt <= TypeFlowRemoved; mt++ {
		var err error
		if stream, err = AppendFrame(stream, exemplarFor(mt), uint32(mt)); err != nil {
			t.Fatal(err)
		}
		want = append(want, exemplarFor(mt))
	}
	first, _ := Encode(want[0], 0)
	cuts := []struct {
		name string
		end  int   // stream bytes delivered
		msgs int   // frames that decode
		err  error // what ends the stream
	}{
		{"whole", len(stream), len(want), io.EOF},
		{"mid-header", len(first) + 3, 1, io.ErrUnexpectedEOF},
		{"mid-body", len(stream) - 3, len(want) - 1, io.ErrUnexpectedEOF},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	}
	for _, rd := range readers {
		for _, cut := range cuts {
			msgs, hdrs, err := recvAll(rd.wrap(bytes.NewReader(stream[:cut.end])))
			if len(msgs) != cut.msgs || !errors.Is(err, cut.err) {
				t.Fatalf("%s/%s: %d frames then %v, want %d then %v", rd.name, cut.name, len(msgs), err, cut.msgs, cut.err)
			}
			for i, m := range msgs {
				if !reflect.DeepEqual(m, want[i]) || hdrs[i].XID != uint32(i) {
					t.Fatalf("%s/%s frame %d: %+v xid %d, want %+v", rd.name, cut.name, i, m, hdrs[i].XID, want[i])
				}
			}
		}
	}
}

// TestAppendFrameNoAllocs pins the send path's encode: a frame appended
// to a buffer with room makes no allocation, and matches Encode.
func TestAppendFrameNoAllocs(t *testing.T) {
	for _, mt := range []MsgType{TypePacketIn, TypeFlowMod, TypeBarrierReply} {
		msg := exemplarFor(mt)
		buf := make([]byte, 0, 256)
		if allocs := testing.AllocsPerRun(100, func() {
			buf, _ = AppendFrame(buf[:0], msg, 9)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per AppendFrame", mt, allocs)
		}
		if frame, _ := Encode(msg, 9); !bytes.Equal(buf, frame) {
			t.Errorf("%s: AppendFrame %x, Encode %x", mt, buf, frame)
		}
	}
}

// TestAppendFrameTooLarge: a frame past the 64 KiB limit leaves dst as
// it was, so one oversized message cannot corrupt a queued batch.
func TestAppendFrameTooLarge(t *testing.T) {
	dst, _ := AppendFrame(nil, Barrier{}, 1)
	huge := Echo{Data: make([]byte, 0x10000)}
	got, err := AppendFrame(dst, huge, 2)
	if !errors.Is(err, ErrTooLarge) || !bytes.Equal(got, dst) {
		t.Fatalf("err = %v, dst %d bytes -> %d", err, len(dst), len(got))
	}
}

func BenchmarkEncodeDecodeFlowMod(b *testing.B) {
	msg := FlowMod{Rule: flowtable.Rule{
		Scope:   flowtable.ServiceID(12),
		Actions: []flowtable.Action{flowtable.Forward(13), flowtable.Out(1)},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, _ := Encode(msg, uint32(i))
		if _, _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
