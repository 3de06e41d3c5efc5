package dataplane

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// collector is a thread-safe output sink.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
	ports  []int
}

func (c *collector) fn(port int, data []byte, _ *Desc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, append([]byte(nil), data...))
	c.ports = append(c.ports, port)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func buildFrame(t *testing.T, srcPort uint16, payload []byte) []byte {
	t.Helper()
	b := packet.Builder{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: srcPort, DstPort: 80, Proto: packet.ProtoUDP,
	}
	buf := make([]byte, 2048)
	n, err := b.Build(buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// startHost builds, configures, and starts a host; cleanup stops it.
func startHost(t *testing.T, cfg Config, setup func(h *Host)) (*Host, *collector) {
	t.Helper()
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 256
	}
	h := NewHost(cfg)
	out := &collector{}
	h.BindDefault(out.fn)
	if setup != nil {
		setup(h)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h, out
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

const (
	svcA flowtable.ServiceID = 10
	svcB flowtable.ServiceID = 11
	svcC flowtable.ServiceID = 12
)

// ppNF builds a read-only NF from a per-packet function, for engine tests
// whose NF logic is naturally one decision per packet.
func ppNF(name string, f func(ctx *nf.Context, p *nf.Packet) nf.Decision) nf.BatchFunction {
	return &nf.BatchAdapter{FnName: name, RO: true,
		ProcessBatchF: func(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
			for i := range batch {
				out[i] = f(ctx, &batch[i])
			}
		}}
}

func TestSingleNFChain(t *testing.T) {
	var processed atomic.Uint64
	h, out := startHost(t, Config{}, func(h *Host) {
		fn := ppNF("count",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision {
				processed.Add(1)
				return nf.Decision{}
			})
		if _, err := h.AddNF(svcA, fn, 0); err != nil {
			t.Fatal(err)
		}
		// port0 -> A -> out port1
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	})
	const n = 50
	frame := buildFrame(t, 1000, []byte("hello"))
	for i := 0; i < n; i++ {
		if err := h.Inject(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return out.count() == n }, "all packets out")
	if processed.Load() != n {
		t.Fatalf("NF processed %d, want %d", processed.Load(), n)
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("buffers leaked: %+v", h.Pool().Stats())
	}
	st := h.Stats()
	if st.TxPackets != n || st.RxPackets != n {
		t.Fatalf("stats: %+v", st)
	}
}

func mustAdd(t *testing.T, h *Host, r flowtable.Rule) {
	t.Helper()
	if _, err := h.Table().Add(r); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialChainOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	mkNF := func(name string) nf.BatchFunction {
		return ppNF(name, func(_ *nf.Context, _ *nf.Packet) nf.Decision {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nf.Decision{}
		})
	}
	h, out := startHost(t, Config{}, func(h *Host) {
		_, _ = h.AddNF(svcA, mkNF("A"), 0)
		_, _ = h.AddNF(svcB, mkNF("B"), 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcB)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	frame := buildFrame(t, 2000, nil)
	if err := h.Inject(0, frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return out.count() == 1 }, "packet out")
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("order = %v, want [A B]", order)
	}
}

func TestDiscardVerb(t *testing.T) {
	h, out := startHost(t, Config{}, func(h *Host) {
		drop := ppNF("drop",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.Discard() })
		_, _ = h.AddNF(svcA, drop, 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	frame := buildFrame(t, 3000, nil)
	for i := 0; i < 10; i++ {
		_ = h.Inject(0, frame)
	}
	waitFor(t, func() bool { return h.Stats().Drops == 10 }, "drops")
	if out.count() != 0 {
		t.Fatalf("%d packets escaped a dropping NF", out.count())
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("buffers leaked after drops: %+v", h.Pool().Stats())
	}
}

func TestSendToValidation(t *testing.T) {
	// NF at A requests SendTo(C), but only B is an allowed next hop;
	// the manager must fall back to the default (B).
	var cGot atomic.Uint64
	var bGot atomic.Uint64
	h, out := startHost(t, Config{}, func(h *Host) {
		toC := ppNF("toC",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.SendTo(svcC) })
		bNF := ppNF("b",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { bGot.Add(1); return nf.Decision{} })
		cNF := ppNF("c",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { cGot.Add(1); return nf.Decision{} })
		_, _ = h.AddNF(svcA, toC, 0)
		_, _ = h.AddNF(svcB, bNF, 0)
		_, _ = h.AddNF(svcC, cNF, 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcB)}}) // C not allowed
		mustAdd(t, h, flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcC, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	_ = h.Inject(0, buildFrame(t, 4000, nil))
	waitFor(t, func() bool { return out.count() == 1 }, "packet out")
	if cGot.Load() != 0 {
		t.Fatal("disallowed SendTo was honored")
	}
	if bGot.Load() != 1 {
		t.Fatal("default fallback not taken")
	}
}

func TestSendToAllowed(t *testing.T) {
	var cGot atomic.Uint64
	h, out := startHost(t, Config{}, func(h *Host) {
		toC := ppNF("toC",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.SendTo(svcC) })
		cNF := ppNF("c",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { cGot.Add(1); return nf.Decision{} })
		_, _ = h.AddNF(svcA, toC, 0)
		_, _ = h.AddNF(svcC, cNF, 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		// Default is out(0), but C is listed as an allowed alternative.
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0), flowtable.Forward(svcC)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcC, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	_ = h.Inject(0, buildFrame(t, 5000, nil))
	waitFor(t, func() bool { return out.count() == 1 }, "packet out")
	if cGot.Load() != 1 {
		t.Fatal("allowed SendTo was not honored")
	}
}

func TestParallelDispatchRefcounts(t *testing.T) {
	var aGot, bGot atomic.Uint64
	h, out := startHost(t, Config{}, func(h *Host) {
		mk := func(c *atomic.Uint64) nf.BatchFunction {
			return ppNF("ro",
				func(_ *nf.Context, _ *nf.Packet) nf.Decision { c.Add(1); return nf.Decision{} })
		}
		_, _ = h.AddNF(svcA, mk(&aGot), 0)
		_, _ = h.AddNF(svcB, mk(&bGot), 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions:  []flowtable.Action{flowtable.Forward(svcA), flowtable.Forward(svcB)},
			Parallel: true})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	})
	const n = 40
	frame := buildFrame(t, 6000, []byte("par"))
	for i := 0; i < n; i++ {
		_ = h.Inject(0, frame)
	}
	// Exactly one copy of each packet exits, both NFs see every packet.
	waitFor(t, func() bool { return out.count() == n }, "join outputs")
	if aGot.Load() != n || bGot.Load() != n {
		t.Fatalf("parallel NFs saw %d/%d, want %d each", aGot.Load(), bGot.Load(), n)
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("refcount leak: %+v", h.Pool().Stats())
	}
}

func TestParallelConflictDropWins(t *testing.T) {
	h, out := startHost(t, Config{}, func(h *Host) {
		pass := ppNF("pass",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.Decision{} })
		drop := ppNF("drop",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.Discard() })
		_, _ = h.AddNF(svcA, pass, 0)
		_, _ = h.AddNF(svcB, drop, 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions:  []flowtable.Action{flowtable.Forward(svcA), flowtable.Forward(svcB)},
			Parallel: true})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	})
	const n = 20
	frame := buildFrame(t, 7000, nil)
	for i := 0; i < n; i++ {
		_ = h.Inject(0, frame)
	}
	waitFor(t, func() bool { return h.Pool().Stats().InUse == 0 && h.Stats().RxPackets == n }, "drain")
	// Drop must win every conflict: nothing exits.
	if out.count() != 0 {
		t.Fatalf("%d packets escaped a drop conflict", out.count())
	}
}

func TestLoadBalancerFlowHashAffinity(t *testing.T) {
	var got [2]atomic.Uint64
	h, out := startHost(t, Config{LoadBalancer: LBFlowHash}, func(h *Host) {
		for i := 0; i < 2; i++ {
			i := i
			fn := ppNF("r",
				func(_ *nf.Context, _ *nf.Packet) nf.Decision { got[i].Add(1); return nf.Decision{} })
			_, _ = h.AddNF(svcA, fn, 0)
		}
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	// One flow: all its packets must hit the same replica.
	frame := buildFrame(t, 8000, nil)
	const n = 30
	for i := 0; i < n; i++ {
		_ = h.Inject(0, frame)
	}
	waitFor(t, func() bool { return out.count() == n }, "packets out")
	a, b := got[0].Load(), got[1].Load()
	if !(a == n && b == 0 || a == 0 && b == n) {
		t.Fatalf("flow split across replicas: %d/%d", a, b)
	}
}

func TestLoadBalancerRoundRobinSpreads(t *testing.T) {
	var got [2]atomic.Uint64
	h, out := startHost(t, Config{LoadBalancer: LBRoundRobin}, func(h *Host) {
		for i := 0; i < 2; i++ {
			i := i
			fn := ppNF("r",
				func(_ *nf.Context, _ *nf.Packet) nf.Decision { got[i].Add(1); return nf.Decision{} })
			_, _ = h.AddNF(svcA, fn, 0)
		}
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	frame := buildFrame(t, 8100, nil)
	const n = 40
	for i := 0; i < n; i++ {
		_ = h.Inject(0, frame)
	}
	waitFor(t, func() bool { return out.count() == n }, "packets out")
	a, b := got[0].Load(), got[1].Load()
	if a == 0 || b == 0 {
		t.Fatalf("round robin starved a replica: %d/%d", a, b)
	}
}

func TestFlowControllerSouthboundResolve(t *testing.T) {
	var misses atomic.Uint64
	cfg := Config{
		Control: control.SouthboundFuncs{
			ResolveFunc: func(_ context.Context, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
				misses.Add(1)
				return []flowtable.Rule{
					{Scope: scope, Match: flowtable.ExactMatch(key),
						Actions: []flowtable.Action{flowtable.Out(2)}},
				}, nil
			},
		},
	}
	h, out := startHost(t, cfg, nil) // empty flow table: everything misses
	frame := buildFrame(t, 9000, nil)
	_ = h.Inject(0, frame)
	waitFor(t, func() bool { return out.count() == 1 }, "miss-resolved packet out")
	if misses.Load() != 1 {
		t.Fatalf("miss handler called %d times", misses.Load())
	}
	// Subsequent packets of the flow hit the installed rule (no new miss).
	_ = h.Inject(0, frame)
	waitFor(t, func() bool { return out.count() == 2 }, "second packet out")
	if misses.Load() != 1 {
		t.Fatalf("rule not installed: %d misses", misses.Load())
	}
	if got := out.ports[1]; got != 2 {
		t.Fatalf("packet exited port %d, want 2", got)
	}
}

// batchRecorder is a southbound that records each ResolveBatch call's
// requests, holds its first call until gate closes, and answers every
// request with an exact rule out of port 2.
type batchRecorder struct {
	control.SouthboundFuncs
	gate    chan struct{}
	mu      sync.Mutex
	batches [][]control.ResolveRequest
}

func (r *batchRecorder) ResolveBatch(_ context.Context, reqs []control.ResolveRequest, out []control.ResolveResult) {
	r.mu.Lock()
	first := len(r.batches) == 0
	r.batches = append(r.batches, append([]control.ResolveRequest(nil), reqs...))
	r.mu.Unlock()
	if first {
		<-r.gate
	}
	for i, q := range reqs {
		out[i] = control.ResolveResult{Rules: []flowtable.Rule{{Scope: q.Scope, Match: flowtable.ExactMatch(q.Key),
			Actions: []flowtable.Action{flowtable.Out(2)}}}}
	}
}

func (r *batchRecorder) calls() [][]control.ResolveRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]control.ResolveRequest(nil), r.batches...)
}

// TestFlowControllerTimeCounters: each miss the Flow Controller resolves
// on its own is one ResolveBatch, and HostStats counts it, with the time
// spent in the call and in installing its answer each advancing.
func TestFlowControllerTimeCounters(t *testing.T) {
	sb := &batchRecorder{gate: make(chan struct{})}
	close(sb.gate)
	h, out := startHost(t, Config{Control: sb}, nil)
	var last HostStats
	for i := 1; i <= 3; i++ {
		if err := h.Inject(0, buildFrame(t, uint16(9600+i), nil)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return out.count() == i }, "miss-resolved packet out")
		st := h.Stats()
		if calls := len(sb.calls()); st.ResolveBatches != uint64(calls) || calls != i ||
			st.ResolveNanos <= last.ResolveNanos || st.InstallNanos <= last.InstallNanos {
			t.Fatalf("after miss %d (%d calls): batches %d, resolve ns %d -> %d, install ns %d -> %d",
				i, calls, st.ResolveBatches, last.ResolveNanos, st.ResolveNanos, last.InstallNanos, st.InstallNanos)
		}
		last = st
	}
}

// TestFlowControllerOneCallPerBacklog: while the Flow Controller waits
// on one resolution, four bursts of 32 new flows queue behind it, one
// flow repeated in all four. The next ResolveBatch carries every pending
// flow exactly once, and every packet is delivered and accounted for.
func TestFlowControllerOneCallPerBacklog(t *testing.T) {
	const bursts, perBurst = 4, 32
	sb := &batchRecorder{gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(sb.gate) })
	h, out := startHost(t, Config{PoolSize: 512, Control: sb}, nil)
	// Registered after startHost's Stop, so it runs first: a failed
	// assertion must not leave the Flow Controller blocked under Stop.
	t.Cleanup(release)

	if err := h.Inject(0, buildFrame(t, 9700, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(sb.calls()) == 1 }, "first resolution under way")
	shared := buildFrame(t, 9799, nil)
	want := map[packet.FlowKey]bool{}
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			frame := shared
			if i > 0 {
				frame = buildFrame(t, uint16(9800+b*perBurst+i), nil)
			}
			v, err := packet.Parse(frame)
			if err != nil {
				t.Fatal(err)
			}
			want[v.FlowKey()] = true
			if err := h.Inject(0, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	const total = 1 + bursts*perBurst
	waitFor(t, func() bool { return h.fcIn[0].Len() == total-1 }, "backlog queued for the Flow Controller")
	release()
	waitFor(t, func() bool { return out.count() == total }, "every packet out")

	calls := sb.calls()
	if len(calls) != 2 {
		t.Fatalf("%d ResolveBatch calls, want 2 (the held one, then the backlog)", len(calls))
	}
	got := map[packet.FlowKey]bool{}
	for _, q := range calls[1] {
		if got[q.Key] || !want[q.Key] || q.Scope != flowtable.Port(0) {
			t.Fatalf("backlog call: unexpected or repeated request %+v", q)
		}
		got[q.Key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("backlog call carried %d flows, want %d", len(got), len(want))
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatal("host not idle")
	}
	if st := h.Stats(); !st.Conserved() || st.Misses != total || st.RxPackets != total {
		t.Fatalf("accounting: %+v", st)
	}
}

// TestUnresolvableMissDropped: a controller that answers without error
// but installs nothing covering the packet — an empty rule set, or only
// rules the table refuses — is asked once, and the packet is dropped and
// counted instead of punted back to the Flow Controller forever.
func TestUnresolvableMissDropped(t *testing.T) {
	for name, rules := range map[string][]flowtable.Rule{
		"empty":     nil,
		"no-action": {{Scope: flowtable.Port(0), Match: flowtable.MatchAll}},
	} {
		t.Run(name, func(t *testing.T) {
			var resolves atomic.Uint64
			h, out := startHost(t, Config{Control: control.SouthboundFuncs{
				ResolveFunc: func(context.Context, flowtable.ServiceID, packet.FlowKey) ([]flowtable.Rule, error) {
					resolves.Add(1)
					return rules, nil
				},
			}}, nil)
			if err := h.Inject(0, buildFrame(t, 9100, nil)); err != nil {
				t.Fatal(err)
			}
			if !h.WaitIdle(5 * time.Second) {
				t.Fatalf("descriptor still held after %d resolves", resolves.Load())
			}
			if n := resolves.Load(); n != 1 {
				t.Fatalf("controller asked %d times, want 1", n)
			}
			st := h.Stats()
			if !st.Conserved() || st.Unresolved != 1 || st.Drops != 1 || out.count() != 0 {
				t.Fatalf("unresolved miss not dropped and counted: %+v (out %d)", st, out.count())
			}
		})
	}
}

func TestCrossLayerChangeDefault(t *testing.T) {
	// NF A sends ChangeDefault(flow, A -> C); afterwards the flow's
	// packets leaving A go to C instead of B.
	var bGot, cGot atomic.Uint64
	release := make(chan struct{})
	h, out := startHost(t, Config{}, func(h *Host) {
		first := true
		aNF := ppNF("a",
			func(ctx *nf.Context, p *nf.Packet) nf.Decision {
				if first {
					first = false
					ctx.Send(nf.Message{
						Kind:  nf.MsgChangeDefault,
						Flows: flowtable.ExactMatch(p.Key),
						S:     svcA,
						T:     svcC,
					})
					close(release)
				}
				return nf.Decision{}
			})
		bNF := ppNF("b",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { bGot.Add(1); return nf.Decision{} })
		cNF := ppNF("c",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { cGot.Add(1); return nf.Decision{} })
		_, _ = h.AddNF(svcA, aNF, 0)
		_, _ = h.AddNF(svcB, bNF, 0)
		_, _ = h.AddNF(svcC, cNF, 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcB), flowtable.Forward(svcC)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcC, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	frame := buildFrame(t, 9500, nil)
	_ = h.Inject(0, frame)
	<-release
	waitFor(t, func() bool { return out.count() == 1 }, "first packet")
	// Wait for the control message to be applied (TX thread 0 drains it).
	waitFor(t, func() bool { return h.Stats().CtrlMessages >= 1 && h.Table().Stats().Rules >= 5 }, "rule installed")
	const n = 10
	for i := 0; i < n; i++ {
		_ = h.Inject(0, frame)
	}
	waitFor(t, func() bool { return out.count() == n+1 }, "remaining packets")
	if cGot.Load() == 0 {
		t.Fatal("ChangeDefault had no effect: C never reached")
	}
	if bGot.Load() > 1 {
		t.Fatalf("B still receiving after ChangeDefault: %d", bGot.Load())
	}
}

// TestFullControlRingCountsDroppedMessages is the regression for
// cross-layer messages lost without a trace: while TX thread 0 is held
// inside the southbound call for the first message, an NF emits more
// messages than the 4096-slot control ring holds. Every message is
// either accepted (CtrlMessages) or refused and counted (MsgsDropped).
func TestFullControlRingCountsDroppedMessages(t *testing.T) {
	const (
		packets = 600
		perPkt  = 8
		emitted = packets * perPkt
		// The ring holds 4096 and TX thread 0 holds at most one more.
		minDropped = emitted - 4096 - 1
	)
	gate := make(chan struct{})
	h, out := startHost(t, Config{PoolSize: 1024, TXThreads: 1, Control: control.SouthboundFuncs{
		SendNFMessageFun: func(context.Context, flowtable.ServiceID, nf.Message) error {
			<-gate
			return nil
		},
	}}, func(h *Host) {
		seq := 0
		emitter := &nf.BatchAdapter{FnName: "emitter", RO: true,
			ProcessBatchF: func(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
				for range batch {
					for k := 0; k < perPkt; k++ {
						ctx.Send(nf.Message{Kind: nf.MsgData, S: svcA, Key: string(rune('a' + k)), Value: seq})
						seq++
					}
				}
			}}
		if _, err := h.AddNF(svcA, emitter, 0); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	// Registered after startHost's Stop, so it runs first: a failed
	// assertion must not leave TX thread 0 blocked under Stop.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)

	frame := buildFrame(t, 9600, nil)
	for i := 0; i < packets; i++ {
		if err := h.Inject(0, frame); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		st := h.Stats()
		return st.CtrlMessages+st.MsgsDropped == emitted
	}, "every emitted message accepted or counted as dropped")
	if st := h.Stats(); st.MsgsDropped < minDropped {
		t.Fatalf("MsgsDropped = %d, want >= %d (CtrlMessages %d)", st.MsgsDropped, minDropped, st.CtrlMessages)
	}

	release()
	if !h.WaitIdle(10 * time.Second) {
		t.Fatalf("host not idle after release: %+v", h.Pool().Stats())
	}
	waitFor(t, func() bool { return out.count() == packets }, "all packets delivered")
	if st := h.Stats(); !st.Conserved() || st.CtrlMessages+st.MsgsDropped != emitted {
		t.Fatalf("accounting after release: %+v", st)
	}
}

func TestInstallGraphEndToEnd(t *testing.T) {
	// Anomaly-detection shaped graph: A -> (B ‖ C read-only) -> out.
	g := graph.New("t")
	if err := g.AddVertex(graph.Vertex{Service: svcA, Name: "fw", ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	_ = g.AddVertex(graph.Vertex{Service: svcB, Name: "ids", ReadOnly: true})
	_ = g.AddVertex(graph.Vertex{Service: svcC, Name: "ddos", ReadOnly: true})
	_ = g.AddEdge(graph.Source, svcA, true)
	_ = g.AddEdge(svcA, svcB, true)
	_ = g.AddEdge(svcB, svcC, true)
	_ = g.AddEdge(svcC, graph.Sink, true)

	var aGot, bGot, cGot atomic.Uint64
	h, out := startHost(t, Config{}, func(h *Host) {
		mk := func(c *atomic.Uint64) nf.BatchFunction {
			return ppNF("x",
				func(_ *nf.Context, _ *nf.Packet) nf.Decision { c.Add(1); return nf.Decision{} })
		}
		_, _ = h.AddNF(svcA, mk(&aGot), 0)
		_, _ = h.AddNF(svcB, mk(&bGot), 0)
		_, _ = h.AddNF(svcC, mk(&cGot), 0)
		if err := h.InstallGraph(g, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	const n = 25
	frame := buildFrame(t, 9900, nil)
	for i := 0; i < n; i++ {
		_ = h.Inject(0, frame)
	}
	waitFor(t, func() bool { return out.count() == n }, "graph traversal")
	if aGot.Load() != n || bGot.Load() != n || cGot.Load() != n {
		t.Fatalf("NF counts %d/%d/%d, want %d each", aGot.Load(), bGot.Load(), cGot.Load(), n)
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("leak: %+v", h.Pool().Stats())
	}
}

func TestLookupCacheAblation(t *testing.T) {
	for _, disable := range []bool{false, true} {
		h, out := startHost(t, Config{DisableLookupCache: disable}, func(h *Host) {
			_, _ = h.AddNF(svcA, ppNF("n",
				func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.Decision{} }), 0)
			mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
				Actions: []flowtable.Action{flowtable.Forward(svcA)}})
			mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
				Actions: []flowtable.Action{flowtable.Out(0)}})
		})
		frame := buildFrame(t, 9999, []byte("cache"))
		const n = 20
		for i := 0; i < n; i++ {
			_ = h.Inject(0, frame)
		}
		waitFor(t, func() bool { return out.count() == n }, "packets out (cache ablation)")
		h.Stop()
	}
}

func TestHostRestart(t *testing.T) {
	h, out := startHost(t, Config{}, func(h *Host) {
		_, _ = h.AddNF(svcA, ppNF("n",
			func(_ *nf.Context, _ *nf.Packet) nf.Decision { return nf.Decision{} }), 0)
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(0)}})
	})
	frame := buildFrame(t, 1234, nil)
	_ = h.Inject(0, frame)
	waitFor(t, func() bool { return out.count() == 1 }, "first run")
	h.Stop()
	if err := h.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	_ = h.Inject(0, frame)
	waitFor(t, func() bool { return out.count() == 2 }, "after restart")
}

func TestAddNFValidation(t *testing.T) {
	h := NewHost(Config{PoolSize: 16})
	if _, err := h.AddNF(flowtable.Port(1), NoopFn(), 0); err == nil {
		t.Fatal("port-range service id accepted")
	}
	if _, err := h.AddNF(graph.Sink, NoopFn(), 0); err == nil {
		t.Fatal("sink service id accepted")
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	// Runtime scale-up: adding a replica to a started host is a live
	// launch, not an error.
	inst, err := h.AddNF(svcA, NoopFn(), 0)
	if err != nil {
		t.Fatalf("runtime AddNF: %v", err)
	}
	if inst.Index != 0 {
		t.Fatalf("first replica index = %d", inst.Index)
	}
	if _, err := h.AddNF(flowtable.Port(1), NoopFn(), 0); err == nil {
		t.Fatal("port-range service id accepted at runtime")
	}
}

// NoopFn returns a minimal native-batch no-op NF for tests.
func NoopFn() nf.BatchFunction {
	return &nf.BatchAdapter{FnName: "noop", RO: true}
}
