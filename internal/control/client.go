package control

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/openflow"
)

// Client is the wire Southbound backend: it speaks the openflow
// package's protocol to a remote controller over one control channel
// and keeps any number of requests in flight at once, correlating
// replies by transaction id (XID). A PacketIn's answer is the stream of
// FlowMods sharing its XID terminated by a Barrier reply, or one
// ErrorMsg; NF messages and flow-removed notices are fire-and-forget.
//
// This is what makes the southbound path pipelined: the Flow Controller
// thread hands ResolveBatch a whole burst of misses and the client
// writes every PacketIn in one Write before the first answer returns,
// instead of blocking one controller round trip per miss.
//
// Client is safe for concurrent use.
type Client struct {
	raw net.Conn
	oc  *openflow.Conn

	sendMu sync.Mutex
	xid    atomic.Uint32

	mu       sync.Mutex
	pending  map[uint32]pendingSlot
	closeErr error

	rejected atomic.Uint64
}

// pendingBatch is one ResolveBatch awaiting its answers. Its slots of
// out are written only under Client.mu while their XIDs are pending;
// done closes when the last one is answered.
type pendingBatch struct {
	out  []ResolveResult
	left int
	done chan struct{}
}

// pendingSlot locates one in-flight PacketIn's result: slot i of b.
type pendingSlot struct {
	b *pendingBatch
	i int
}

// DialAs connects to a controller's southbound listener identifying the
// local NF host as datapath dp; the controller registers the session
// under that id and scopes resolutions and FLOW_MODs to it.
func DialAs(ctx context.Context, addr string, dp DatapathID) (*Client, error) {
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientAs(raw, dp)
}

// NewClientAs wraps an established control-channel connection,
// announcing dp as the local datapath identity in the client HELLO.
func NewClientAs(raw net.Conn, dp DatapathID) (*Client, error) {
	c := &Client{
		raw:     raw,
		oc:      openflow.NewConn(raw),
		pending: make(map[uint32]pendingSlot),
	}
	if err := c.send(openflow.Hello{DatapathID: uint64(dp)}, c.nextXID()); err != nil {
		_ = raw.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the channel; in-flight requests fail with ErrStopped.
func (c *Client) Close() error {
	c.fail(ErrStopped)
	return c.raw.Close()
}

// Rejected returns the number of asynchronous northbound refusals
// (ErrorMsg frames answering fire-and-forget NF messages).
func (c *Client) Rejected() uint64 { return c.rejected.Load() }

func (c *Client) nextXID() uint32 { return c.xid.Add(1) }

func (c *Client) send(msg openflow.Message, xid uint32) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.oc.SendXID(msg, xid)
}

// answer settles the pending slot for xid, if any: err, or the FlowMods
// collected so far when err is nil.
func (c *Client) answer(xid uint32, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.pending[xid]
	if ok {
		delete(c.pending, xid)
		s.settle(err)
	}
	return ok
}

func (s pendingSlot) settle(err error) {
	if err != nil {
		s.b.out[s.i] = ResolveResult{Err: err}
	}
	if s.b.left--; s.b.left == 0 {
		close(s.b.done)
	}
}

// fail terminates every in-flight operation and refuses new ones.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closeErr == nil {
		c.closeErr = fmt.Errorf("%w: %v", ErrStopped, err)
	}
	for xid, s := range c.pending {
		delete(c.pending, xid)
		s.settle(c.closeErr)
	}
	c.mu.Unlock()
}

func (c *Client) readLoop() {
	for {
		msg, hdr, err := c.oc.Recv()
		if err != nil {
			c.fail(err)
			return
		}
		switch m := msg.(type) {
		case openflow.Hello:
			// Peer greeting; nothing to do.
		case openflow.Echo:
			if !m.Reply {
				_ = c.send(openflow.Echo{Reply: true, Data: m.Data}, hdr.XID)
			}
		case openflow.FlowMod:
			c.mu.Lock()
			if s, ok := c.pending[hdr.XID]; ok {
				s.b.out[s.i].Rules = append(s.b.out[s.i].Rules, m.Rule)
			}
			c.mu.Unlock()
		case openflow.Barrier:
			if m.Reply {
				c.answer(hdr.XID, nil)
			}
		case openflow.ErrorMsg:
			if !c.answer(hdr.XID, mapWireError(m)) &&
				(m.Code == openflow.ErrCodeRejected || m.Code == openflow.ErrCodeInvalid) {
				// Asynchronous refusal of a fire-and-forget NF message.
				c.rejected.Add(1)
			}
		}
	}
}

// mapWireError lifts a protocol error frame back onto the sentinel
// taxonomy so errors.Is matches across backends.
func mapWireError(e openflow.ErrorMsg) error {
	switch e.Code {
	case openflow.ErrCodeQueueFull:
		return fmt.Errorf("%w (remote: %s)", ErrQueueFull, e.Text)
	case openflow.ErrCodeNoCompiler:
		return fmt.Errorf("%w (remote: %s)", ErrNoCompiler, e.Text)
	case openflow.ErrCodeStopped:
		return fmt.Errorf("%w (remote: %s)", ErrStopped, e.Text)
	case openflow.ErrCodeRejected:
		return fmt.Errorf("%w (remote: %s)", ErrRejected, e.Text)
	case openflow.ErrCodeInvalid:
		return fmt.Errorf("%w (remote: %s)", ErrInvalidMessage, e.Text)
	default:
		return fmt.Errorf("%w %d: %s", ErrRemote, e.Code, e.Text)
	}
}

// ResolveBatch implements Southbound: every request is registered under
// its own XID, then all PacketIns go out in one Write before the first
// answer is awaited, so the whole batch shares one round trip plus the
// controller's (possibly overlapped) service times. A failed write fails
// the channel, and with it every request of the batch.
func (c *Client) ResolveBatch(ctx context.Context, reqs []ResolveRequest, out []ResolveResult) {
	if len(reqs) == 0 {
		return
	}
	n := uint32(len(reqs))
	b := &pendingBatch{out: out[:n], left: int(n), done: make(chan struct{})}
	c.mu.Lock()
	if err := c.closeErr; err != nil {
		c.mu.Unlock()
		fillErr(b.out, err)
		return
	}
	first := c.xid.Add(n) - n + 1
	for i := range b.out {
		b.out[i] = ResolveResult{}
		c.pending[first+uint32(i)] = pendingSlot{b, i}
	}
	c.mu.Unlock()

	c.sendMu.Lock()
	for i, r := range reqs {
		// A header-only PacketIn is far below the frame limit.
		_ = c.oc.Queue(openflow.PacketIn{Scope: r.Scope, Key: r.Key}, first+uint32(i))
	}
	err := c.oc.Flush()
	c.sendMu.Unlock()
	if err != nil {
		c.fail(err)
		fillErr(b.out, fmt.Errorf("%w: %v", ErrStopped, err))
		return
	}
	select {
	case <-b.done:
	case <-ctx.Done():
		c.mu.Lock()
		for i := range b.out {
			if _, ok := c.pending[first+uint32(i)]; ok {
				delete(c.pending, first+uint32(i))
				b.out[i] = ResolveResult{Err: ctx.Err()}
			}
		}
		c.mu.Unlock()
	}
}

func fillErr(out []ResolveResult, err error) {
	for i := range out {
		out[i] = ResolveResult{Err: err}
	}
}

// SendNFMessage implements Southbound. Delivery is asynchronous: the
// message is validated, framed, and written, and any northbound refusal
// comes back later as an ErrorMsg counted in Rejected.
func (c *Client) SendNFMessage(_ context.Context, src flowtable.ServiceID, m nf.Message) error {
	if err := Validate(m); err != nil {
		return err
	}
	if err := c.send(openflow.NFMessage{Src: src, Msg: m}, c.nextXID()); err != nil {
		return fmt.Errorf("%w: %v", ErrStopped, err)
	}
	return nil
}

// NotifyFlowRemoved implements Southbound. Like SendNFMessage it is
// fire-and-forget: the removals are framed and written, split across as
// many frames as the 64 KiB frame limit requires, and no reply is
// awaited — eviction notices are advisory, and blocking the sweeper
// goroutine on a controller round trip would stall eviction.
func (c *Client) NotifyFlowRemoved(_ context.Context, removals []FlowRemoved) error {
	for len(removals) > 0 {
		n := min(len(removals), openflow.MaxFlowRemovedEntries)
		m := openflow.FlowRemoved{Removals: make([]openflow.FlowRemovedEntry, n)}
		for i, r := range removals[:n] {
			m.Removals[i] = openflow.FlowRemovedEntry{
				Scope:  r.Scope,
				Match:  r.Match,
				RuleID: r.RuleID,
				Reason: uint8(r.Reason),
			}
		}
		if err := c.send(m, c.nextXID()); err != nil {
			return fmt.Errorf("%w: %v", ErrStopped, err)
		}
		removals = removals[n:]
	}
	return nil
}

var _ Southbound = (*Client)(nil)
