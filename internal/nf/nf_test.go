package nf

import (
	"testing"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
)

func TestDecisionConstructors(t *testing.T) {
	if d := (Decision{}); d.Verb != VerbDefault {
		t.Fatalf("zero Decision = %v", d)
	}
	if d := SendTo(7); d.Verb != VerbSendTo || d.Dest != 7 {
		t.Fatalf("SendTo = %v", d)
	}
	if d := Discard(); d.Verb != VerbDiscard {
		t.Fatalf("Discard = %v", d)
	}
	if d := Out(3); d.Verb != VerbOut || d.Dest.PortNum() != 3 {
		t.Fatalf("Out = %v", d)
	}
}

func TestDecisionString(t *testing.T) {
	cases := map[string]Decision{
		"default":       {},
		"sendto(svc:7)": SendTo(7),
		"discard":       Discard(),
		"out(port:3)":   Out(3),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Kind: MsgChangeDefault, S: 1, T: 2}
	if s := m.String(); s == "" {
		t.Fatal("empty string")
	}
	m = Message{Kind: MsgData, S: 1, Key: "k", Value: 3}
	if s := m.String(); s == "" {
		t.Fatal("empty data string")
	}
	for _, k := range []MsgKind{MsgSkipMe, MsgRequestMe, MsgChangeDefault, MsgData, MsgKind(99)} {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestContextSendNilSafe(t *testing.T) {
	var c Context
	c.Send(Message{Kind: MsgData}) // must not panic with nil Emit
	var got []Message
	c.Emit = func(m Message) { got = append(got, m) }
	c.Send(Message{Kind: MsgSkipMe, S: 5})
	if len(got) != 1 || got[0].S != flowtable.ServiceID(5) {
		t.Fatalf("got = %v", got)
	}
}

func TestBatchAdapterLifecycle(t *testing.T) {
	inits, closes := 0, 0
	a := &BatchAdapter{
		FnName: "ba", RO: true,
		InitF:  func(*Context) error { inits++; return nil },
		CloseF: func() error { closes++; return nil },
	}
	if err := InitNF(a, &Context{}); err != nil || inits != 1 {
		t.Fatal("InitF not invoked")
	}
	if err := CloseNF(a); err != nil || closes != 1 {
		t.Fatal("CloseF not invoked")
	}
	// Nil ProcessBatchF leaves decisions untouched (Default).
	out := []Decision{Discard()}
	a.ProcessBatch(&Context{}, make([]Packet, 1), out)
	if out[0].Verb != VerbDiscard {
		t.Fatal("nil ProcessBatchF mutated out")
	}
	// NFs without hooks are fine too.
	if err := InitNF(hookless{}, &Context{}); err != nil {
		t.Fatal(err)
	}
	if err := CloseNF(hookless{}); err != nil {
		t.Fatal(err)
	}
}

// hookless is a BatchFunction with neither lifecycle hook.
type hookless struct{}

func (hookless) Name() string                                { return "hookless" }
func (hookless) ReadOnly() bool                              { return true }
func (hookless) ProcessBatch(*Context, []Packet, []Decision) {}

func TestBufferedEmitFlushDedupes(t *testing.T) {
	var got []Message
	c := Context{Service: 7, Emit: func(m Message) { got = append(got, m) }}
	c.BufferEmits(true)
	k := packet.FlowKey{SrcIP: packet.IPv4(10, 0, 0, 1), SrcPort: 1, DstPort: 2, Proto: 17}
	// A burst where one flow triggers the same ChangeDefault repeatedly,
	// interleaved with data records (never collapsed) and a distinct
	// steering message.
	cd := Message{Kind: MsgChangeDefault, Flows: flowtable.ExactMatch(k), S: 7, T: 9}
	for i := 0; i < 3; i++ {
		c.Send(cd)
		c.Send(Message{Kind: MsgData, S: 7, Key: "n", Value: i})
	}
	c.Send(Message{Kind: MsgRequestMe, Flows: flowtable.MatchAll, S: 7})
	c.Send(Message{Kind: MsgRequestMe, Flows: flowtable.MatchAll, S: 7})
	if len(got) != 0 {
		t.Fatalf("buffered Send delivered early: %v", got)
	}
	if n := c.FlushEmits(); n != 5 {
		t.Fatalf("FlushEmits = %d, want 5 (1 ChangeDefault + 3 data + 1 RequestMe)", n)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d messages: %v", len(got), got)
	}
	if got[0].Kind != MsgChangeDefault || got[1].Kind != MsgData || got[4].Kind != MsgRequestMe {
		t.Fatalf("order/dedupe wrong: %v", got)
	}
	// Buffer resets between bursts: the same message sends again next burst.
	c.Send(cd)
	if n := c.FlushEmits(); n != 1 {
		t.Fatalf("second-burst flush = %d, want 1", n)
	}
	// Unbuffered contexts deliver immediately (v1 behavior).
	c.BufferEmits(false)
	c.Send(cd)
	if len(got) != 7 {
		t.Fatalf("unbuffered Send not immediate: %d", len(got))
	}
}
