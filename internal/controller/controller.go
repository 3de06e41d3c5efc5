// Package controller implements the SDN controller of the SDNFV
// architecture (Fig. 2). Like the paper's POX deployment it defaults to
// processing control requests one at a time — which is exactly what
// makes it a bottleneck when the data plane punts too much traffic to it
// (Fig. 1, Fig. 10). A configurable per-request service time models the
// controller's processing cost, and Config.Workers widens the event
// loop into a pool for production-style deployments, so pipelined
// southbound channels can keep several requests in service at once.
//
// The controller is the in-process backend of the control package's
// typed API:
//
//   - Southbound: each NF host talks to a Session, which implements
//     control.Southbound for same-process NF Managers; Serve speaks the
//     openflow wire protocol (PACKET_IN → FLOW_MODs, pipelined by XID)
//     to remote ones (control.Client is the matching dialer), driving
//     each channel's Session the same way.
//   - Northbound: the SDNFV Application attaches as a
//     control.Northbound via SetNorthbound (rule compilation and
//     cross-layer message validation, §3.4).
//
// The controller is multi-datapath (Fig. 2 shows one controller managing
// a *set* of NF hosts): each host registers a Session under its
// control.DatapathID — in process via Controller.Session, over the wire
// by announcing the id in its HELLO — and every resolution and
// cross-layer message is scoped to the registering host, so the
// northbound tier compiles per-host rule sets and FLOW_MODs never leak
// across datapaths. Session(0) is the anonymous datapath: single-host
// deployments that never name themselves pass it to their NF Manager,
// and every wire channel starts on it until its HELLO names the host.
package controller

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/openflow"
	"sdnfv/internal/packet"
)

// Config tunes the controller.
type Config struct {
	// ServiceTime is the modeled processing cost per request; the paper's
	// measured SDN lookup is ~31 ms end-to-end with POX. Zero disables
	// the artificial delay.
	ServiceTime time.Duration
	// QueueDepth bounds the event queue; requests beyond it are rejected
	// with control.ErrQueueFull (the saturation behaviour of Fig. 1).
	// Zero means 1024.
	QueueDepth int
	// Workers is the number of concurrent request processors. Zero or
	// one reproduces the paper's single-threaded POX bottleneck; larger
	// values let pipelined southbound channels overlap service times.
	Workers int
}

// Controller is an SDN controller: a bounded request queue drained by
// Config.Workers processors, shared by every registered datapath
// session. NF Managers reach it through a Session.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	nb       control.Northbound
	conns    map[net.Conn]struct{}
	sessions map[control.DatapathID]*Session
	// anon is the datapath-0 session backing single-host managers and
	// not-yet-identified wire channels. It lives outside the registry so
	// Datapaths() only reports real hosts.
	anon *Session

	queue chan request
	wg    sync.WaitGroup
	// ctx is done, with cause control.ErrStopped, once Stop runs; the wire
	// channels pass it to the calls they serve.
	ctx  context.Context
	stop context.CancelCauseFunc
}

type request struct {
	ctx   context.Context
	sess  *Session
	scope flowtable.ServiceID
	key   packet.FlowKey
	reply func(rules []flowtable.Rule, err error)
}

// New builds a controller; call Start before use.
func New(cfg Config) *Controller {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	c := &Controller{
		cfg:      cfg,
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[control.DatapathID]*Session),
		queue:    make(chan request, cfg.QueueDepth),
	}
	c.anon = &Session{c: c}
	c.ctx, c.stop = context.WithCancelCause(context.Background())
	return c
}

// Session registers (or returns) the southbound endpoint for datapath
// dp. Each NF host in the controller's domain gets its own session:
// resolutions submitted through it carry the host's identity to the
// northbound tier, FLOW_MODs compiled for it never leak to another
// host, and its counters are scoped so per-host control load is
// observable. Sessions share the controller's event queue and worker
// pool (the saturation behaviour of Fig. 1 is a property of the
// controller, not of any one host).
func (c *Controller) Session(dp control.DatapathID) *Session {
	if dp == 0 {
		// The anonymous session is shared and unregistered: it backs
		// single-host deployments that never name themselves and must
		// not surface as a phantom datapath in Datapaths().
		return c.anon
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[dp]; ok {
		return s
	}
	s := &Session{c: c, dp: dp}
	c.sessions[dp] = s
	return s
}

// Datapaths lists the registered (named) datapath ids in ascending
// order; the anonymous datapath-0 session is never included.
func (c *Controller) Datapaths() []control.DatapathID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]control.DatapathID, 0, len(c.sessions))
	for dp := range c.sessions {
		out = append(out, dp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetNorthbound attaches the SDNFV Application tier. Without one, every
// resolve fails with control.ErrNoCompiler and cross-layer messages are
// counted but dropped.
func (c *Controller) SetNorthbound(nb control.Northbound) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nb = nb
}

func (c *Controller) northbound() control.Northbound {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nb
}

// Start launches the worker pool.
func (c *Controller) Start() {
	for w := 0; w < c.cfg.Workers; w++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for {
				select {
				case <-c.ctx.Done():
					return
				case req := <-c.queue:
					c.handle(req)
				}
			}
		}()
	}
}

// Stop terminates the workers and closes any live southbound channels;
// queued and in-flight requests fail with control.ErrStopped.
func (c *Controller) Stop() {
	c.stop(control.ErrStopped)
	c.mu.Lock()
	for conn := range c.conns {
		_ = conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *Controller) handle(req request) {
	if c.cfg.ServiceTime > 0 {
		time.Sleep(c.cfg.ServiceTime)
	}
	nb := c.northbound()
	if nb == nil {
		req.reply(nil, control.ErrNoCompiler)
		return
	}
	rules, err := nb.CompileFlow(req.ctx, req.sess.dp, req.scope, req.key)
	if err == nil {
		req.sess.flowMods.Add(uint64(len(rules)))
	}
	req.reply(rules, err)
}

// submit admits one request from sess to the event queue; reply runs
// exactly once unless the controller stops first. Only admitted requests
// count in Stats.Requests; a full queue refuses with control.ErrQueueFull
// and counts in Stats.Rejected instead, so Requests+Rejected is the
// offered load (see control.Stats). The counts land on sess only;
// Controller.Stats sums the sessions.
func (c *Controller) submit(ctx context.Context, sess *Session, scope flowtable.ServiceID, key packet.FlowKey, reply func([]flowtable.Rule, error)) error {
	// Count before the send: a worker may answer the request, and the
	// caller read Stats, before the select returns. A refusal takes the
	// count back.
	sess.requests.Add(1)
	select {
	case c.queue <- request{ctx: ctx, sess: sess, scope: scope, key: key, reply: reply}:
		return nil
	case <-c.ctx.Done():
		sess.requests.Add(^uint64(0))
		return control.ErrStopped
	default:
		sess.requests.Add(^uint64(0))
		sess.rejected.Add(1)
		return control.ErrQueueFull
	}
}

// Stats sums every session's counters, the anonymous one included: the
// controller-wide load. See control.Stats for the counters' exact
// semantics; per-host counters live on each Session. Sessions are never
// removed, so no count ever leaves the sum. It fails with ctx's cause
// once ctx is done.
func (c *Controller) Stats(ctx context.Context) (control.Stats, error) {
	if ctx.Err() != nil {
		return control.Stats{}, context.Cause(ctx)
	}
	var st control.Stats
	c.mu.Lock()
	defer c.mu.Unlock()
	c.anon.addTo(&st)
	for _, s := range c.sessions {
		s.addTo(&st)
	}
	return st, nil
}

// Session is one datapath's registered southbound endpoint: the typed
// API an NF Manager uses when its controller manages several hosts.
// Requests submitted through it share the controller's queue and worker
// pool but carry the session's datapath id to the northbound tier, so
// compiled rules are scoped to this host.
type Session struct {
	c  *Controller
	dp control.DatapathID

	requests      atomic.Uint64
	rejected      atomic.Uint64
	flowMods      atomic.Uint64
	nfMsgs        atomic.Uint64
	noticesFailed atomic.Uint64
	repliesFailed atomic.Uint64
}

// ResolveBatch implements control.Southbound: the southbound path this
// host's Flow Controller thread calls on a burst of misses. All requests
// are admitted before the first answer is awaited, so Config.Workers > 1
// overlaps their service times. Each slot is filled when its rules
// arrive, ctx expires, or the controller stops — a request still queued
// when the pool exits must not strand the caller (and the host's Stop).
func (s *Session) ResolveBatch(ctx context.Context, reqs []control.ResolveRequest, out []control.ResolveResult) {
	chans := make([]chan control.ResolveResult, len(reqs))
	for i, r := range reqs {
		ch := make(chan control.ResolveResult, 1)
		if err := s.c.submit(ctx, s, r.Scope, r.Key, func(rules []flowtable.Rule, err error) {
			ch <- control.ResolveResult{Rules: rules, Err: err}
		}); err != nil {
			out[i] = control.ResolveResult{Err: err}
			continue
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if ch == nil {
			continue
		}
		select {
		case res := <-ch:
			out[i] = res
		case <-ctx.Done():
			out[i] = control.ResolveResult{Err: ctx.Err()}
		case <-s.c.ctx.Done():
			out[i] = control.ResolveResult{Err: control.ErrStopped}
		}
	}
}

// SendNFMessage implements control.Southbound: the in-process path for
// cross-layer messages routed via the controller (Fig. 2 step 5). The
// message is validated structurally, counted, and handed to the
// northbound tier with this session's host identity; the policy verdict
// (control.ErrRejected) is returned synchronously.
func (s *Session) SendNFMessage(ctx context.Context, src flowtable.ServiceID, m nf.Message) error {
	if err := control.Validate(m); err != nil {
		return err
	}
	s.nfMsgs.Add(1)
	nb := s.c.northbound()
	if nb == nil {
		return nil
	}
	return nb.HandleNFMessage(ctx, s.dp, src, m)
}

// NotifyFlowRemoved implements control.Southbound: the data plane's
// eviction notices for this host are handed to the northbound tier so
// the application drops its view of the flows; without a northbound
// they are dropped (they are advisory, like NF messages on a bare
// controller).
func (s *Session) NotifyFlowRemoved(ctx context.Context, removals []control.FlowRemoved) error {
	if len(removals) == 0 {
		return nil
	}
	nb := s.c.northbound()
	if nb == nil {
		return nil
	}
	return nb.HandleFlowRemoved(ctx, s.dp, removals)
}

// Stats reports the session-scoped counters: this host's share of the
// controller's load.
func (s *Session) Stats(context.Context) (control.Stats, error) {
	var st control.Stats
	s.addTo(&st)
	return st, nil
}

// addTo adds the session's counters into st.
func (s *Session) addTo(st *control.Stats) {
	st.Requests += s.requests.Load()
	st.Rejected += s.rejected.Load()
	st.FlowMods += s.flowMods.Load()
	st.NFMsgs += s.nfMsgs.Load()
	st.NoticesFailed += s.noticesFailed.Load()
	st.RepliesFailed += s.repliesFailed.Load()
}

// Serve accepts NF Manager control channels on ln and speaks the
// openflow package's protocol: HELLO exchange, then pipelined PACKET_IN
// → FLOW_MOD resolution, NF_MESSAGE, FLOW_REMOVED, ECHO, and BARRIER
// handling. It returns when ln is closed.
func (c *Controller) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			if err := c.serveConn(conn); err != nil {
				// Connection errors are expected at shutdown; nothing to
				// do beyond closing.
				_ = err
			}
		}()
	}
}

// sendReply answers one admitted PacketIn in a single Write: an ErrorMsg
// for a failed resolution, else the compiled FlowMods terminated by a
// Barrier. sendMu serializes the channel's writers.
func sendReply(sendMu *sync.Mutex, oc *openflow.Conn, xid uint32, rules []flowtable.Rule, rerr error) error {
	sendMu.Lock()
	defer sendMu.Unlock()
	if rerr != nil {
		return oc.SendXID(openflow.ErrorMsg{Code: errCode(rerr), Text: rerr.Error()}, xid)
	}
	for _, r := range rules {
		if err := oc.Queue(openflow.FlowMod{Rule: r}, xid); err != nil {
			return err
		}
	}
	return oc.SendXID(openflow.Barrier{Reply: true}, xid)
}

// errCode maps a resolve error to its wire code so control.Client can
// lift it back onto the sentinel taxonomy.
func errCode(err error) uint16 {
	switch {
	case errors.Is(err, control.ErrQueueFull):
		return openflow.ErrCodeQueueFull
	case errors.Is(err, control.ErrNoCompiler):
		return openflow.ErrCodeNoCompiler
	case errors.Is(err, control.ErrStopped):
		return openflow.ErrCodeStopped
	case errors.Is(err, control.ErrRejected):
		return openflow.ErrCodeRejected
	case errors.Is(err, control.ErrInvalidMessage):
		return openflow.ErrCodeInvalid
	default:
		return openflow.ErrCodeResolve
	}
}

func (c *Controller) serveConn(conn net.Conn) error {
	c.mu.Lock()
	c.conns[conn] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	oc := openflow.NewConn(conn)
	if _, err := oc.Send(openflow.Hello{}); err != nil {
		return err
	}
	// The channel starts as the anonymous datapath; the peer's HELLO
	// (always its first frame, so it precedes every PacketIn) upgrades
	// the session to its announced identity.
	sess := c.Session(0)
	// Replies are produced concurrently (PacketIns resolve on the worker
	// pool and answer out of order); sendMu serializes frame writes.
	var sendMu sync.Mutex
	sendXID := func(msg openflow.Message, xid uint32) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return oc.SendXID(msg, xid)
	}
	for {
		msg, hdr, err := oc.Recv()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case openflow.Hello:
			// Peer greeting: register the session under the datapath id
			// the NF host announced (zero keeps it anonymous).
			if m.DatapathID != 0 {
				sess = c.Session(control.DatapathID(m.DatapathID))
			}
		case openflow.Echo:
			if !m.Reply {
				if err := sendXID(openflow.Echo{Reply: true, Data: m.Data}, hdr.XID); err != nil {
					return err
				}
			}
		case openflow.Barrier:
			if !m.Reply {
				if err := sendXID(openflow.Barrier{Reply: true}, hdr.XID); err != nil {
					return err
				}
			}
		case openflow.PacketIn:
			// Pipelined: admit the request and return to the read loop
			// immediately; the reply closure ships the XID-correlated
			// FlowMods (terminated by a Barrier) whenever a worker gets
			// to it, possibly interleaved with later XIDs.
			xid := hdr.XID
			// A reply the channel refuses is only counted: the read
			// loop sees the dead conn next. rsess pins the admitting
			// session (a later HELLO may rebind sess).
			rsess := sess
			err := c.submit(context.Background(), sess, m.Scope, m.Key, func(rules []flowtable.Rule, rerr error) {
				if sendReply(&sendMu, oc, xid, rules, rerr) != nil {
					rsess.repliesFailed.Add(1)
				}
			})
			if err != nil {
				if err := sendXID(openflow.ErrorMsg{Code: errCode(err), Text: err.Error()}, xid); err != nil {
					return err
				}
			}
		case openflow.NFMessage:
			if lerr := sess.SendNFMessage(context.Background(), m.Src, m.Msg); lerr != nil {
				// Asynchronous refusal: the sender observes it as a
				// counted ErrorMsg, not a blocking round trip. Any
				// northbound failure that is not structural invalidity
				// is a rejection from the sender's point of view, so
				// plain (non-sentinel) errors map to the rejected code
				// — control.Client only counts rejected/invalid.
				code := errCode(lerr)
				if code != openflow.ErrCodeInvalid {
					code = openflow.ErrCodeRejected
				}
				if err := sendXID(openflow.ErrorMsg{Code: code, Text: lerr.Error()}, hdr.XID); err != nil {
					return err
				}
			}
		case openflow.FlowRemoved:
			// Eviction notices from the host's sweeper. Fire-and-forget on
			// the wire (no reply frame, so a refused notice is only
			// counted), and cold enough to handle inline rather than
			// through the worker pool.
			removals := make([]control.FlowRemoved, len(m.Removals))
			for i, e := range m.Removals {
				removals[i] = control.FlowRemoved{
					Scope:  e.Scope,
					Match:  e.Match,
					RuleID: e.RuleID,
					Reason: control.FlowRemovedReason(e.Reason),
				}
			}
			if err := sess.NotifyFlowRemoved(context.Background(), removals); err != nil {
				sess.noticesFailed.Add(1)
			}
		default:
			if err := sendXID(openflow.ErrorMsg{Code: openflow.ErrCodeUnexpected, Text: fmt.Sprintf("unexpected %s", hdr.Type)}, hdr.XID); err != nil {
				return err
			}
		}
	}
}

var _ control.Southbound = (*Session)(nil)
