package dataplane

import (
	"testing"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

const (
	svcX flowtable.ServiceID = 31
	svcY flowtable.ServiceID = 32
)

// TestPerPortEgressBindings steers flows out two different ports and
// checks each lands only in its bound sink, with BindDefault catching
// the rest.
func TestPerPortEgressBindings(t *testing.T) {
	h := NewHost(Config{PoolSize: 256, TXThreads: 1})
	p1, p2, other := &collector{}, &collector{}, &collector{}
	h.BindPort(1, p1.fn)
	h.BindPort(2, p2.fn)
	h.BindDefault(other.fn)
	// Flows to dst port 80 exit port 1, dst 81 exit port 2, dst 82 exit
	// the unbound port 3 (default sink).
	for dst, out := range map[uint16]int{80: 1, 81: 2, 82: 3} {
		d := dst
		if _, err := h.Table().Add(flowtable.Rule{
			Scope: flowtable.Port(0), Match: flowtable.Match{DstPort: &d},
			Actions: []flowtable.Action{flowtable.Out(out)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)

	frameTo := func(dst uint16) []byte {
		b := packet.Builder{
			SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
			SrcPort: 5000, DstPort: dst, Proto: packet.ProtoUDP,
		}
		buf := make([]byte, 1024)
		n, err := b.Build(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	for i := 0; i < 5; i++ {
		for _, dst := range []uint16{80, 81, 82} {
			if err := h.Inject(0, frameTo(dst)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool {
		return p1.count() == 5 && p2.count() == 5 && other.count() == 5
	}, "per-port deliveries")
	st := h.Stats()
	if st.TxPackets != 15 || st.TxDrops != 0 {
		t.Fatalf("tx=%d txdrops=%d", st.TxPackets, st.TxDrops)
	}
	for _, p := range p1.ports {
		if p != 1 {
			t.Fatalf("sink 1 saw port %d", p)
		}
	}
	for _, p := range p2.ports {
		if p != 2 {
			t.Fatalf("sink 2 saw port %d", p)
		}
	}
}

// TestTransmitUnboundCountsTxDrops is the regression for the transmit
// accounting bug: frames egressing a port with no bound sink used to
// count in TxPackets while the bytes vanished. They must count as
// TxDrops, keeping rx == tx + drops + overflows + txdrops exact.
func TestTransmitUnboundCountsTxDrops(t *testing.T) {
	h := NewHost(Config{PoolSize: 64, TXThreads: 1})
	if _, err := h.Table().Add(flowtable.Rule{
		Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)

	frame := buildFrame(t, 6000, nil)
	const n = 10
	for i := 0; i < n; i++ {
		if err := h.Inject(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return h.Stats().TxDrops == n }, "tx drops")
	st := h.Stats()
	if st.TxPackets != 0 {
		t.Fatalf("unbound egress counted as transmitted: %+v", st)
	}
	if !st.Conserved() {
		t.Fatalf("accounting broken: %+v", st)
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("buffers leaked: %+v", h.Pool().Stats())
	}

	// Binding the port at runtime (atomically published) makes the same
	// flow deliverable.
	out := &collector{}
	h.BindPort(5, out.fn)
	if err := h.Inject(0, frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return out.count() == 1 }, "post-bind delivery")
	if st := h.Stats(); st.TxPackets != 1 || st.TxDrops != n {
		t.Fatalf("post-bind stats: %+v", st)
	}
}

// TestSkipMeWithExactOnlyRules is the regression for the lookupAnyRule
// bug: when the skipped service's scope holds only exact-match rules
// (per-flow compilation mode), the zero-key lookup finds nothing and
// SkipMe silently no-opped. The fallback scan must discover the
// service's default action and apply the bypass. The message takes the
// production path: svcY's NF emits it through ctx.Send.
func TestSkipMeWithExactOnlyRules(t *testing.T) {
	h := NewHost(Config{PoolSize: 64, TXThreads: 1})
	key := packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 7000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	// svcX forwards to svcY by default; svcY's ONLY rule is exact-match
	// (not the zero key), with default Out(1).
	mustAdd := func(r flowtable.Rule) {
		t.Helper()
		if _, err := h.Table().Add(r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcX)}})
	mustAdd(flowtable.Rule{Scope: svcX, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcY), flowtable.Out(1)}})
	mustAdd(flowtable.Rule{Scope: svcY, Match: flowtable.ExactMatch(key),
		Actions: []flowtable.Action{flowtable.Out(1)}})

	if _, err := h.AddNF(svcX, &nf.BatchAdapter{FnName: "x", RO: true}, 0); err != nil {
		t.Fatal(err)
	}
	sent := false
	if _, err := h.AddNF(svcY, &nf.BatchAdapter{FnName: "y", RO: true,
		ProcessBatchF: func(ctx *nf.Context, _ []nf.Packet, _ []nf.Decision) {
			if !sent {
				sent = true
				ctx.Send(nf.Message{Kind: nf.MsgSkipMe, Flows: flowtable.ExactMatch(key), S: svcY})
			}
		}}, 0); err != nil {
		t.Fatal(err)
	}
	out := &collector{}
	h.BindDefault(out.fn)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)

	if err := h.Inject(0, buildFrame(t, key.SrcPort, nil)); err != nil {
		t.Fatal(err)
	}
	defaultAtX := func() flowtable.Action {
		e, err := h.Table().Lookup(svcX, key)
		if err != nil {
			return flowtable.Action{}
		}
		def, _ := e.Default()
		return def
	}
	waitFor(t, func() bool { return out.count() == 1 && defaultAtX() == flowtable.Out(1) },
		"SkipMe to bypass svcY at svcX")
	if st := h.Stats(); st.CtrlMessages != 1 || st.MsgsRejected != 0 {
		t.Fatalf("messages: %+v", st)
	}
}
