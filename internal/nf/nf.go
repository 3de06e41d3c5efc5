// Package nf defines the SDNFV-User library surface (§4.3) — SDK v2: the
// batch-first interface a network function implements, the per-packet
// actions it may request, the lifecycle hooks the engine drives, the
// engine-owned per-flow state store, and the longer-lived cross-layer
// messages an NF can send up to the NF Manager and SDNFV Application
// (§3.4).
//
// # SDK v2 in one paragraph
//
// An NF implements BatchFunction: the engine hands it a whole burst of
// packets and a decision array, mirroring the burst-oriented layers below
// it (flow-table LookupBatch, SPSC DequeueBatch/EnqueueBatch). Optional
// lifecycle hooks Init/Close bracket the instance's life so state lives
// on the nf.Context instead of package globals: Context.FlowState() is a
// sharded per-flow store owned by the engine, surviving NF restarts and
// inspectable by the manager for §3.4-style per-flow decisions. Cross-
// layer messages sent during a burst are buffered and flushed once per
// burst with duplicate steering messages collapsed.
package nf

import (
	"fmt"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/mempool"
	"sdnfv/internal/packet"
)

// Verb is the per-packet action kind an NF returns (§3.4 "NF Packet
// Actions"): Default follows the flow table's default edge, SendTo picks a
// specific allowed next hop, Discard drops, and Out transmits directly.
type Verb uint8

// Per-packet verbs.
const (
	VerbDefault Verb = iota
	VerbSendTo
	VerbDiscard
	VerbOut
)

// Decision is what an NF returns for a processed packet. NFs never forward
// packets themselves — they record a decision and return the batch to the
// NF Manager, which validates and performs it. The zero value is Default.
type Decision struct {
	Verb Verb
	// Dest is the target service for VerbSendTo or the NIC port
	// (flowtable.Port-encoded) for VerbOut.
	Dest flowtable.ServiceID
}

// SendTo requests delivery to service s (must be an allowed next hop).
func SendTo(s flowtable.ServiceID) Decision { return Decision{Verb: VerbSendTo, Dest: s} }

// Discard drops the packet.
func Discard() Decision { return Decision{Verb: VerbDiscard} }

// Out transmits the packet out NIC port n.
func Out(n int) Decision { return Decision{Verb: VerbOut, Dest: flowtable.Port(n)} }

// String renders the decision.
func (d Decision) String() string {
	switch d.Verb {
	case VerbSendTo:
		return "sendto(" + d.Dest.String() + ")"
	case VerbDiscard:
		return "discard"
	case VerbOut:
		return fmt.Sprintf("out(port:%d)", d.Dest.PortNum())
	default:
		return "default"
	}
}

// Packet is the zero-copy view handed to an NF for each descriptor. It
// bundles the parsed header view with the pool handle so helpers can reach
// descriptor metadata.
type Packet struct {
	Handle mempool.Handle
	View   *packet.View
	Key    packet.FlowKey
	// ArrivalNanos is the host RX timestamp (engine clock).
	ArrivalNanos int64
}

// Context is the per-instance environment the engine provides to an NF:
// identity, the engine-owned flow-state store, and the side channel for
// cross-layer messages. A Context belongs to one NF goroutine; only that
// goroutine may call Send during processing.
type Context struct {
	// Service is the abstract service this instance implements.
	Service flowtable.ServiceID
	// Instance distinguishes replicas of the same service on one host.
	Instance int
	// Flows is the engine-owned per-flow state store for this instance.
	// It outlives the NF: replacing or restarting the function behind a
	// service keeps its flow state, and the manager may inspect it for
	// per-flow decisions (§3.4). Prefer the FlowState accessor, which
	// lazily allocates a private store outside the engine.
	Flows *FlowState
	// Emit delivers one cross-layer message to the NF Manager. It may be
	// nil in unit tests; use Context.Send which tolerates that.
	Emit func(Message)

	// buffered switches Send into per-burst batching (engine mode).
	buffered bool
	pending  []Message
}

// FlowState returns the per-instance flow-state store, allocating a
// private one on first use when no engine attached one (unit tests,
// standalone NF drivers).
func (c *Context) FlowState() *FlowState {
	if c.Flows == nil {
		c.Flows = NewFlowState()
	}
	return c.Flows
}

// BufferEmits switches Send into batch mode: messages accumulate until
// FlushEmits. The engine enables this so a burst's messages are deduped
// and delivered once per burst instead of once per packet.
func (c *Context) BufferEmits(on bool) { c.buffered = on }

// Send emits m — immediately when unbuffered (and a manager channel is
// attached), otherwise into the current burst's buffer.
func (c *Context) Send(m Message) {
	if c.buffered {
		c.pending = append(c.pending, m)
		return
	}
	if c.Emit != nil {
		c.Emit(m)
	}
}

// FlushEmits delivers the messages buffered during the current burst and
// returns the number delivered. Duplicate steering messages (SkipMe,
// RequestMe, ChangeDefault with identical fields) collapse to the first
// occurrence — applying them is idempotent, so a burst of packets from one
// newly-flagged flow costs one manager message, mirroring the miss-burst
// dedupe on the controller side. MsgData records are events and are never
// collapsed. The engine calls this once per burst; tests may call it
// directly.
func (c *Context) FlushEmits() int {
	if len(c.pending) == 0 {
		return 0
	}
	sent := 0
	for i := range c.pending {
		if c.pending[i].Kind != MsgData && hasEarlierDuplicate(c.pending[:i], c.pending[i]) {
			continue
		}
		if c.Emit != nil {
			c.Emit(c.pending[i])
			sent++
		}
	}
	clear(c.pending) // drop references (MsgData values can be large)
	c.pending = c.pending[:0]
	return sent
}

// DropEmits discards the messages buffered during the current burst
// without delivering them. The engine uses it to unwind a failed launch.
func (c *Context) DropEmits() {
	clear(c.pending)
	c.pending = c.pending[:0]
}

// hasEarlierDuplicate reports whether an equal steering message precedes m
// in the burst buffer. Value is intentionally ignored: steering kinds do
// not carry application data.
func hasEarlierDuplicate(earlier []Message, m Message) bool {
	for i := range earlier {
		e := &earlier[i]
		if e.Kind == m.Kind && e.S == m.S && e.T == m.T && e.Key == m.Key && e.Flows.Equal(m.Flows) {
			return true
		}
	}
	return false
}

// BatchFunction is a network function — the v2, batch-first interface.
// The engine calls ProcessBatch once per burst; batch[i] and out[i]
// correspond. The out slots arrive zeroed (Default), so an NF writes only
// the decisions it wants to change. Both slices alias engine-owned arrays
// that are reused after the call returns: an NF must not retain batch,
// out, or any Packet view/handle beyond the call.
//
// ReadOnly reports whether the function never mutates packet bytes; only
// read-only NFs are eligible for parallel dispatch (§3.3).
//
// An NF may additionally implement Initializer and Closer for lifecycle
// hooks.
type BatchFunction interface {
	// Name returns a short human-readable identifier.
	Name() string
	// ReadOnly reports whether the NF never writes to packet buffers.
	ReadOnly() bool
	// ProcessBatch handles one burst, recording one decision per packet.
	ProcessBatch(ctx *Context, batch []Packet, out []Decision)
}

// Initializer is the optional startup hook of a BatchFunction. The engine
// calls Init once before the instance processes any packet, with the same
// Context later passed to ProcessBatch; an error aborts the instance
// launch. Use it to validate configuration, allocate state, cache the
// flow-state store, or announce the NF with a cross-layer message.
type Initializer interface {
	Init(ctx *Context) error
}

// Closer is the optional teardown hook of a BatchFunction. The engine
// calls Close exactly once per successful Init, after the instance has
// stopped processing: on Host.Stop, during the unwind of a failed
// Host.Start, or when a still-open NF is replaced. An NF whose Init
// never ran (or already failed) is not closed.
type Closer interface {
	Close() error
}

// InitNF runs fn's Init hook if it has one.
func InitNF(fn BatchFunction, ctx *Context) error {
	if i, ok := fn.(Initializer); ok {
		return i.Init(ctx)
	}
	return nil
}

// CloseNF runs fn's Close hook if it has one.
func CloseNF(fn BatchFunction) error {
	if c, ok := fn.(Closer); ok {
		return c.Close()
	}
	return nil
}

// MsgKind discriminates cross-layer messages (§3.4).
type MsgKind uint8

// Cross-layer message kinds.
const (
	// MsgSkipMe: NFs whose default edge leads to S should bypass S.
	MsgSkipMe MsgKind = iota
	// MsgRequestMe: all nodes with an edge to S make S their default.
	MsgRequestMe
	// MsgChangeDefault: set the default rule for service S to T.
	MsgChangeDefault
	// MsgData: arbitrary (key, value) application data for the manager /
	// SDNFV Application.
	MsgData
)

// String names the kind.
func (k MsgKind) String() string {
	switch k {
	case MsgSkipMe:
		return "SkipMe"
	case MsgRequestMe:
		return "RequestMe"
	case MsgChangeDefault:
		return "ChangeDefault"
	case MsgData:
		return "Message"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Message is a cross-layer control message from an NF. Flows selects which
// flows the change applies to (wildcards allowed); S and T are services as
// defined per kind in §3.4.
type Message struct {
	Kind  MsgKind
	Flows flowtable.Match
	S     flowtable.ServiceID
	T     flowtable.ServiceID
	// Key/Value carry application data for MsgData.
	Key   string
	Value any
}

// String renders the message for logs.
func (m Message) String() string {
	switch m.Kind {
	case MsgChangeDefault:
		return fmt.Sprintf("ChangeDefault(%s, %s -> %s)", m.Flows, m.S, m.T)
	case MsgData:
		return fmt.Sprintf("Message(%s, %q=%v)", m.S, m.Key, m.Value)
	default:
		return fmt.Sprintf("%s(%s, %s)", m.Kind, m.Flows, m.S)
	}
}

// BatchAdapter lifts plain functions into a BatchFunction with optional
// lifecycle hooks; handy in tests and simple examples.
type BatchAdapter struct {
	FnName        string
	RO            bool
	ProcessBatchF func(ctx *Context, batch []Packet, out []Decision)
	InitF         func(ctx *Context) error
	CloseF        func() error
}

// Name implements BatchFunction.
func (a *BatchAdapter) Name() string { return a.FnName }

// ReadOnly implements BatchFunction.
func (a *BatchAdapter) ReadOnly() bool { return a.RO }

// ProcessBatch implements BatchFunction; a nil ProcessBatchF leaves every
// decision at Default.
func (a *BatchAdapter) ProcessBatch(ctx *Context, batch []Packet, out []Decision) {
	if a.ProcessBatchF != nil {
		a.ProcessBatchF(ctx, batch, out)
	}
}

// Init implements Initializer.
func (a *BatchAdapter) Init(ctx *Context) error {
	if a.InitF != nil {
		return a.InitF(ctx)
	}
	return nil
}

// Close implements Closer.
func (a *BatchAdapter) Close() error {
	if a.CloseF != nil {
		return a.CloseF()
	}
	return nil
}

var (
	_ BatchFunction = (*BatchAdapter)(nil)
	_ Initializer   = (*BatchAdapter)(nil)
	_ Closer        = (*BatchAdapter)(nil)
)
