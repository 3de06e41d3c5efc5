package openflow

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
)

// refMatch is the reference model of a flowtable.Match: each 5-tuple
// field either absent (a wildcard) or present with its value.
type refMatch struct {
	srcIP, dstIP     *packet.IP
	srcPort, dstPort *uint16
	proto            *uint8
}

// refOf builds the model of the fields of k that mask names.
func refOf(k packet.FlowKey, mask flowtable.MatchField) refMatch {
	var r refMatch
	if mask&flowtable.FieldSrcIP != 0 {
		r.srcIP = &k.SrcIP
	}
	if mask&flowtable.FieldDstIP != 0 {
		r.dstIP = &k.DstIP
	}
	if mask&flowtable.FieldSrcPort != 0 {
		r.srcPort = &k.SrcPort
	}
	if mask&flowtable.FieldDstPort != 0 {
		r.dstPort = &k.DstPort
	}
	if mask&flowtable.FieldProto != 0 {
		r.proto = &k.Proto
	}
	return r
}

func fieldOK[T comparable](f *T, v T) bool { return f == nil || *f == v }

func fieldEq[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func (r refMatch) matches(k packet.FlowKey) bool {
	return fieldOK(r.srcIP, k.SrcIP) && fieldOK(r.dstIP, k.DstIP) &&
		fieldOK(r.srcPort, k.SrcPort) && fieldOK(r.dstPort, k.DstPort) && fieldOK(r.proto, k.Proto)
}

func (r refMatch) equal(o refMatch) bool {
	return fieldEq(r.srcIP, o.srcIP) && fieldEq(r.dstIP, o.dstIP) &&
		fieldEq(r.srcPort, o.srcPort) && fieldEq(r.dstPort, o.dstPort) && fieldEq(r.proto, o.proto)
}

func (r refMatch) string() string {
	var parts []string
	if r.srcIP != nil {
		parts = append(parts, "srcIP="+r.srcIP.String())
	}
	if r.dstIP != nil {
		parts = append(parts, "dstIP="+r.dstIP.String())
	}
	if r.srcPort != nil {
		parts = append(parts, fmt.Sprintf("srcPort=%d", *r.srcPort))
	}
	if r.dstPort != nil {
		parts = append(parts, fmt.Sprintf("dstPort=%d", *r.dstPort))
	}
	if r.proto != nil {
		parts = append(parts, fmt.Sprintf("proto=%d", *r.proto))
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ",")
}

// FuzzMatch checks the value flowtable.Match against the reference
// model: Matches, Equal, Specificity, IsExact, ExactKey and String
// agree with it for any mask (stray high bits included) and values, and
// the match survives the wire round trip as the same value. The second
// match shares the first's key where mask bit 7 of b is set, so Equal
// and Matches also see agreeing fields, not only random ones.
func FuzzMatch(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint32(0), uint16(0), uint16(0), uint8(0), uint8(0), uint32(0), uint16(0))
	f.Add(uint8(0x1f), uint32(0x0a000001), uint32(0x0a000002), uint16(1000), uint16(80), uint8(17), uint8(0x9f), uint32(0), uint16(0))
	f.Add(uint8(0x01), uint32(7), uint32(8), uint16(9), uint16(10), uint8(6), uint8(0x81), uint32(7), uint16(9))
	f.Add(uint8(0xff), uint32(1), uint32(2), uint16(3), uint16(4), uint8(5), uint8(0x1f), uint32(1), uint16(3))
	f.Fuzz(func(t *testing.T, ma uint8, sip, dip uint32, sp, dp uint16, pr uint8, mb uint8, xip uint32, xp uint16) {
		ka := packet.FlowKey{SrcIP: packet.IP(sip), DstIP: packet.IP(dip), SrcPort: sp, DstPort: dp, Proto: pr}
		kb := packet.FlowKey{SrcIP: packet.IP(xip), DstIP: packet.IP(dip ^ xip), SrcPort: xp, DstPort: dp ^ xp, Proto: pr ^ uint8(xp)}
		if mb&0x80 != 0 {
			kb = ka
		}
		a, b := flowtable.NewMatch(ka, flowtable.MatchField(ma)), flowtable.NewMatch(kb, flowtable.MatchField(mb))
		ra, rb := refOf(ka, flowtable.MatchField(ma)), refOf(kb, flowtable.MatchField(mb))

		for _, k := range []packet.FlowKey{ka, kb, {}} {
			if got, want := a.Matches(k), ra.matches(k); got != want {
				t.Fatalf("%v.Matches(%v) = %v, model %v", a, k, got, want)
			}
		}
		if got, want := a.Equal(b), ra.equal(rb); got != want || (a == b) != want {
			t.Fatalf("%v.Equal(%v) = %v (== %v), model %v", a, b, got, a == b, want)
		}
		n := 0
		for _, set := range []bool{ra.srcIP != nil, ra.dstIP != nil, ra.srcPort != nil, ra.dstPort != nil, ra.proto != nil} {
			if set {
				n++
			}
		}
		if a.Specificity() != n || a.IsExact() != (n == 5) {
			t.Fatalf("%v: specificity %d exact %v, model %d", a, a.Specificity(), a.IsExact(), n)
		}
		if k, ok := a.ExactKey(); ok != (n == 5) || (ok && k != ka) {
			t.Fatalf("%v.ExactKey() = %v, %v", a, k, ok)
		}
		if got, want := a.String(), ra.string(); got != want {
			t.Fatalf("String() = %q, model %q", got, want)
		}

		wire := encodeMatch(nil, a)
		back, rest, err := decodeMatch(wire)
		if err != nil || len(rest) != 0 || back != a {
			t.Fatalf("wire round trip of %v: %v rest %d err %v", a, back, len(rest), err)
		}
		// Any 14 wire bytes decode to the model of their mask and key:
		// values under wildcard bits do not leak into the match.
		raw := encodeKey(append([]byte(nil), ma), ka)
		m, _, err := decodeMatch(raw)
		if err != nil || m != a {
			t.Fatalf("decode of %x = %v, want %v", raw, m, a)
		}
	})
}

// TestFlowModFieldRange: a FlowMod field whose value does not fit its
// wire field is refused with ErrFieldRange, and dst is left as it was,
// instead of wrapping into a different rule (256 actions into none,
// priority -1 into 65535, a 30-day lease into a negative one, meaning
// "never expires"). The largest values that fit round-trip exactly.
func TestFlowModFieldRange(t *testing.T) {
	acts := func(n int) []flowtable.Action {
		a := make([]flowtable.Action, n)
		for i := range a {
			a[i] = flowtable.Forward(flowtable.ServiceID(i))
		}
		return a
	}
	const month = 30 * 24 * time.Hour
	maxLease := time.Duration(math.MaxInt32) * time.Millisecond
	for _, tc := range []struct {
		name string
		rule flowtable.Rule
		ok   bool
	}{
		{"255 actions", flowtable.Rule{Actions: acts(255)}, true},
		{"256 actions", flowtable.Rule{Actions: acts(256)}, false},
		{"priority 0", flowtable.Rule{Actions: acts(1), Priority: 0}, true},
		{"priority 65535", flowtable.Rule{Actions: acts(1), Priority: math.MaxUint16}, true},
		{"priority -1", flowtable.Rule{Actions: acts(1), Priority: -1}, false},
		{"priority 70000", flowtable.Rule{Actions: acts(1), Priority: 70000}, false},
		{"idle at the int32 limit", flowtable.Rule{Actions: acts(1), IdleTimeout: maxLease}, true},
		{"idle never", flowtable.Rule{Actions: acts(1), IdleTimeout: -time.Millisecond}, true},
		{"idle 30 days", flowtable.Rule{Actions: acts(1), IdleTimeout: month}, false},
		{"idle -30 days", flowtable.Rule{Actions: acts(1), IdleTimeout: -month}, false},
		{"hard at the negative int32 limit", flowtable.Rule{Actions: acts(1), HardTimeout: -maxLease}, true},
		{"hard 30 days", flowtable.Rule{Actions: acts(1), HardTimeout: month}, false},
	} {
		prefix, _ := AppendFrame(nil, Barrier{}, 1)
		got, err := AppendFrame(prefix, FlowMod{Rule: tc.rule}, 2)
		if !tc.ok {
			if !errors.Is(err, ErrFieldRange) || len(got) != len(prefix) {
				t.Errorf("%s: err %v, dst %d -> %d bytes; want ErrFieldRange and dst unchanged", tc.name, err, len(prefix), len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		msg, _, err := Decode(got[len(prefix):])
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		r := msg.(*FlowMod).Rule
		if len(r.Actions) != len(tc.rule.Actions) || r.Priority != tc.rule.Priority ||
			r.IdleTimeout != tc.rule.IdleTimeout || r.HardTimeout != tc.rule.HardTimeout {
			t.Errorf("%s: decoded %d actions, priority %d, leases %v/%v", tc.name, len(r.Actions), r.Priority, r.IdleTimeout, r.HardTimeout)
		}
	}
}
