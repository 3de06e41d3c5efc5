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
	"sdnfv/internal/packet"
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
// writes every PacketIn back to back before the first answer returns,
// instead of blocking one controller round trip per miss.
//
// Client is safe for concurrent use.
type Client struct {
	raw net.Conn
	oc  *openflow.Conn

	sendMu sync.Mutex
	xid    atomic.Uint32

	mu       sync.Mutex
	pending  map[uint32]*pendingOp
	closeErr error

	rejected atomic.Uint64
}

// pendingOp is one PacketIn awaiting its answer: the FlowMods collected
// so far, and done, which receives nil at the Barrier or the error.
type pendingOp struct {
	rules []flowtable.Rule
	done  chan error
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
		pending: make(map[uint32]*pendingOp),
	}
	if err := c.send(openflow.Hello{DatapathID: uint64(dp)}, c.nextXID()); err != nil {
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

// register files a pending resolve under a fresh XID. It must happen
// before the PacketIn is written, or a fast reply could race the
// bookkeeping.
func (c *Client) register() (uint32, *pendingOp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return 0, nil, c.closeErr
	}
	xid := c.nextXID()
	op := &pendingOp{done: make(chan error, 1)}
	c.pending[xid] = op
	return xid, op, nil
}

func (c *Client) unregister(xid uint32) {
	c.mu.Lock()
	delete(c.pending, xid)
	c.mu.Unlock()
}

// complete resolves the pending operation for xid, if any.
func (c *Client) complete(xid uint32, err error) bool {
	c.mu.Lock()
	op, ok := c.pending[xid]
	if ok {
		delete(c.pending, xid)
	}
	c.mu.Unlock()
	if ok {
		op.done <- err
	}
	return ok
}

// fail terminates every in-flight operation and refuses new ones.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closeErr == nil {
		c.closeErr = fmt.Errorf("%w: %v", ErrStopped, err)
	}
	failed := c.pending
	c.pending = make(map[uint32]*pendingOp)
	closeErr := c.closeErr
	c.mu.Unlock()
	for _, op := range failed {
		op.done <- closeErr
	}
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
			if op, ok := c.pending[hdr.XID]; ok {
				op.rules = append(op.rules, m.Rule)
			}
			c.mu.Unlock()
		case openflow.Barrier:
			if m.Reply {
				c.complete(hdr.XID, nil)
			}
		case openflow.ErrorMsg:
			if !c.complete(hdr.XID, mapWireError(m)) &&
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

// start registers and writes one PacketIn without waiting for the
// answer; the returned operation completes when the Barrier or an
// ErrorMsg for its XID arrives.
func (c *Client) start(scope flowtable.ServiceID, key packet.FlowKey) (uint32, *pendingOp, error) {
	xid, op, err := c.register()
	if err != nil {
		return 0, nil, err
	}
	if err := c.send(openflow.PacketIn{Scope: scope, Key: key}, xid); err != nil {
		c.unregister(xid)
		return 0, nil, fmt.Errorf("%w: %v", ErrStopped, err)
	}
	return xid, op, nil
}

func (c *Client) wait(ctx context.Context, xid uint32, op *pendingOp) ResolveResult {
	select {
	case err := <-op.done:
		if err != nil {
			return ResolveResult{Err: err}
		}
		return ResolveResult{Rules: op.rules}
	case <-ctx.Done():
		c.unregister(xid)
		return ResolveResult{Err: ctx.Err()}
	}
}

// ResolveBatch implements Southbound: every PacketIn is written before
// the first answer is awaited, so the whole batch shares one round trip
// plus the controller's (possibly overlapped) service times.
func (c *Client) ResolveBatch(ctx context.Context, reqs []ResolveRequest, out []ResolveResult) {
	xids := make([]uint32, len(reqs))
	ops := make([]*pendingOp, len(reqs))
	for i, r := range reqs {
		xid, op, err := c.start(r.Scope, r.Key)
		if err != nil {
			out[i] = ResolveResult{Err: err}
			continue
		}
		xids[i], ops[i] = xid, op
	}
	for i, op := range ops {
		if op == nil {
			continue
		}
		out[i] = c.wait(ctx, xids[i], op)
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
