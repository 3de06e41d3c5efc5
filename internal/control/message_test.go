package control

import (
	"errors"
	"testing"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

func testKey() packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 80, Proto: packet.ProtoUDP,
	}
}

// TestMessageValidation is the table-driven structural check for every
// message kind.
func TestMessageValidation(t *testing.T) {
	skip := func(s flowtable.ServiceID) nf.Message {
		return nf.Message{Kind: nf.MsgSkipMe, Flows: flowtable.MatchAll, S: s}
	}
	req := func(s flowtable.ServiceID) nf.Message {
		return nf.Message{Kind: nf.MsgRequestMe, Flows: flowtable.MatchAll, S: s}
	}
	cd := func(s, t flowtable.ServiceID) nf.Message {
		return nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.ExactMatch(testKey()), S: s, T: t}
	}
	data := func(k string, v any) nf.Message { return nf.Message{Kind: nf.MsgData, Key: k, Value: v} }
	cases := []struct {
		name string
		msg  nf.Message
		ok   bool
	}{
		{"skipme ok", skip(7), true},
		{"skipme zero service", skip(0), false},
		{"skipme sink", skip(graph.Sink), false},
		{"skipme port", skip(flowtable.Port(1)), false},

		{"requestme ok", req(9), true},
		{"requestme zero service", req(0), false},
		{"requestme port", req(flowtable.Port(0)), false},

		{"changedefault service target", cd(1, 2), true},
		{"changedefault egress port target", cd(1, flowtable.Port(3)), true},
		{"changedefault zero service", cd(0, 2), false},
		{"changedefault port service", cd(flowtable.Port(0), 2), false},
		{"changedefault zero target", cd(1, 0), false},
		{"changedefault sink target", cd(1, graph.Sink), false},
		{"changedefault self target", cd(4, 4), false},

		{"appdata ok", data("alarm", "on"), true},
		{"appdata nil value ok", data("ping", nil), true},
		{"appdata empty key", data("", nil), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.msg)
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("want invalid, got nil error")
				}
				if !errors.Is(err, ErrInvalidMessage) {
					t.Fatalf("error %v does not wrap ErrInvalidMessage", err)
				}
			}
		})
	}
}

// TestFromUnionRejects checks Validate refuses malformed raw records as
// they arrive off the wire, and refuses unknown kinds even when every
// field is otherwise well formed.
func TestFromUnionRejects(t *testing.T) {
	bad := []nf.Message{
		{Kind: nf.MsgKind(99), Key: "k", S: 1},
		{Kind: nf.MsgSkipMe, S: flowtable.Port(0)},
		{Kind: nf.MsgChangeDefault, S: 1, T: 1},
		{Kind: nf.MsgData, Key: ""},
	}
	for _, u := range bad {
		if err := Validate(u); !errors.Is(err, ErrInvalidMessage) {
			t.Fatalf("%v: err = %v", u, err)
		}
	}
}
