package control

// Tests pinning the wire Client's syscall shape against a scripted peer
// on the far end of a net.Pipe: one Write per ResolveBatch, and a batch
// the channel refuses fails whole and leaves nothing pending.

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/openflow"
)

// countConn is a control channel that counts its Writes and Closes, and
// refuses every Write once fail is set.
type countConn struct {
	net.Conn
	writes atomic.Int32
	closes atomic.Int32
	fail   atomic.Bool
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.fail.Load() {
		return 0, errors.New("channel gone")
	}
	return c.Conn.Write(b)
}

func (c *countConn) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

func batchReqs(n int) []ResolveRequest {
	reqs := make([]ResolveRequest, n)
	for i := range reqs {
		k := testKey()
		k.SrcPort = uint16(i)
		reqs[i] = ResolveRequest{Scope: flowtable.Port(0), Key: k}
	}
	return reqs
}

func (c *Client) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// TestNewClientClosesConnOnHelloFailure: a channel that refuses the
// HELLO is closed, not leaked.
func TestNewClientClosesConnOnHelloFailure(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	cc := &countConn{Conn: cli}
	cc.fail.Store(true)
	if _, err := NewClientAs(cc, 1); err == nil {
		t.Fatal("NewClientAs succeeded over a channel that refuses writes")
	}
	if n := cc.closes.Load(); n != 1 {
		t.Fatalf("conn closed %d times, want 1", n)
	}
}

// TestResolveBatchIsOneWrite: a batch of 32 PacketIns leaves in a single
// Write under 32 distinct XIDs, and each slot gets its answer.
func TestResolveBatchIsOneWrite(t *testing.T) {
	const n = 32
	srv, cli := net.Pipe()
	defer srv.Close()
	cc := &countConn{Conn: cli}
	seen := make(chan map[uint32]bool, 1)
	go func() {
		peer := openflow.NewConn(srv)
		xids := make(map[uint32]bool)
		for count := 0; count <= n; count++ { // the HELLO, then the batch
			msg, hdr, err := peer.Recv()
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			if _, ok := msg.(*openflow.PacketIn); ok {
				xids[hdr.XID] = true
				_ = peer.Queue(openflow.FlowMod{Rule: flowtable.Rule{Scope: 1, Actions: []flowtable.Action{flowtable.Drop()}}}, hdr.XID)
				_ = peer.Queue(openflow.Barrier{Reply: true}, hdr.XID)
			}
		}
		seen <- xids
		if err := peer.Flush(); err != nil {
			t.Errorf("peer: %v", err)
		}
	}()
	c, err := NewClientAs(cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := cc.writes.Load()
	out := make([]ResolveResult, n)
	c.ResolveBatch(context.Background(), batchReqs(n), out)
	if w := cc.writes.Load() - before; w != 1 {
		t.Fatalf("ResolveBatch of %d made %d writes, want 1", n, w)
	}
	if xids := <-seen; len(xids) != n {
		t.Fatalf("peer saw %d distinct XIDs, want %d", len(xids), n)
	}
	for i, r := range out {
		if r.Err != nil || len(r.Rules) != 1 {
			t.Fatalf("slot %d: %+v", i, r)
		}
	}
	if p := c.pendingLen(); p != 0 {
		t.Fatalf("%d requests still pending", p)
	}
}

// TestResolveBatchWriteFailure: a batch whose Write fails answers every
// slot with ErrStopped and leaves nothing pending; the next batch fails
// the same way at once instead of waiting for answers that cannot come.
func TestResolveBatchWriteFailure(t *testing.T) {
	const n = 32
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() { _, _ = io.Copy(io.Discard, srv) }()
	cc := &countConn{Conn: cli}
	c, err := NewClientAs(cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc.fail.Store(true)
	for round := 0; round < 2; round++ {
		out := make([]ResolveResult, n)
		done := make(chan struct{})
		go func() {
			c.ResolveBatch(context.Background(), batchReqs(n), out)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: ResolveBatch still blocked after its write failed", round)
		}
		for i, r := range out {
			if !errors.Is(r.Err, ErrStopped) {
				t.Fatalf("round %d slot %d: err = %v, want ErrStopped", round, i, r.Err)
			}
		}
		if p := c.pendingLen(); p != 0 {
			t.Fatalf("round %d: %d requests left pending", round, p)
		}
	}
}

// TestClientInterleavedReplies: a peer may interleave the FlowMods of
// different replies. The reader hands each slot exactly its own rules,
// in order, with one slice sized for them.
func TestClientInterleavedReplies(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		peer := openflow.NewConn(srv)
		var xids []uint32
		for len(xids) < 2 {
			msg, hdr, err := peer.Recv()
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			if _, ok := msg.(*openflow.PacketIn); ok {
				xids = append(xids, hdr.XID)
			}
		}
		mod := func(dest flowtable.ServiceID) openflow.FlowMod {
			return openflow.FlowMod{Rule: flowtable.Rule{Scope: dest, Actions: []flowtable.Action{flowtable.Forward(dest)}}}
		}
		a, b := xids[0], xids[1]
		for _, f := range []struct {
			msg openflow.Message
			xid uint32
		}{
			{mod(1), a}, {mod(2), b}, {mod(3), b}, {mod(4), a},
			{openflow.Barrier{Reply: true}, b}, {mod(5), a}, {openflow.Barrier{Reply: true}, a},
		} {
			_ = peer.Queue(f.msg, f.xid)
		}
		if err := peer.Flush(); err != nil {
			t.Errorf("peer: %v", err)
		}
	}()
	c, err := NewClientAs(cli, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]ResolveResult, 2)
	c.ResolveBatch(context.Background(), batchReqs(2), out)
	for i, want := range [][]flowtable.ServiceID{{1, 4, 5}, {2, 3}} {
		var got []flowtable.ServiceID
		for _, r := range out[i].Rules {
			got = append(got, r.Scope)
		}
		if out[i].Err != nil || !slices.Equal(got, want) {
			t.Fatalf("slot %d: scopes %v err %v, want %v", i, got, out[i].Err, want)
		}
	}
}
