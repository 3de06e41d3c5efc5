// Package control is the single typed, asynchronous API for all
// cross-tier communication in the SDNFV control hierarchy (Fig. 2):
//
//	NF  →  NF Manager  →  SDN Controller  →  SDNFV Application
//
// It replaces the ad-hoc function hooks the tiers used to be wired with
// (dataplane miss/message callbacks, controller compiler setters) by two
// interfaces, one message type (nf.Message, checked by Validate) and one
// error taxonomy:
//
//   - Southbound is what an NF Manager sees of its SDN controller: the
//     three calls the data plane makes — batched flow resolution
//     (PACKET_IN → FLOW_MOD), cross-layer message forwarding and
//     flow-removed notices. Two interchangeable backends exist: an
//     in-process controller.Session, and Client, which speaks the
//     openflow wire protocol with pipelined XID-correlated PacketIns.
//
//   - Northbound is what the SDN controller sees of the SDNFV
//     Application: the three calls the controller makes — rule
//     compilation for new flows, validation and recording of
//     cross-layer messages, and flow-removed bookkeeping. app.App
//     implements it.
//
// All requests carry a context.Context for deadlines/cancellation and
// fail with the sentinel error taxonomy below instead of stringly-typed
// errors, so callers can branch with errors.Is across backends.
package control

import (
	"context"
	"errors"
	"fmt"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// Sentinel errors shared by every control-plane backend. Wire backends
// map protocol error codes back onto these values, so errors.Is works
// identically for in-process and remote controllers.
var (
	// ErrQueueFull reports a request refused at admission because the
	// controller's bounded event queue was full (the saturation regime
	// of Fig. 1). The request was never counted in Stats.Requests.
	ErrQueueFull = errors.New("control: request queue full")
	// ErrStopped reports an endpoint that has shut down (or a channel
	// that closed) before the request completed.
	ErrStopped = errors.New("control: endpoint stopped")
	// ErrNoCompiler reports a controller with no northbound tier
	// attached: there is nothing to compile flow rules.
	ErrNoCompiler = errors.New("control: no rule compiler installed")
	// ErrRejected reports a cross-layer message refused by northbound
	// policy validation (§3.4: untrusted NFs may only steer flows along
	// edges of the original service graph).
	ErrRejected = errors.New("control: message rejected by policy")
	// ErrInvalidMessage reports a cross-layer message that failed its
	// per-variant structural validation before any policy was consulted.
	ErrInvalidMessage = errors.New("control: invalid message")
	// ErrRemote reports a protocol error frame whose code maps onto no
	// other sentinel — a backend newer (or buggier) than this client.
	// Wrapping it keeps even unknown failures classifiable by errors.Is.
	ErrRemote = errors.New("control: remote error")
)

// DatapathID identifies one NF host (datapath) within the controller's
// domain. The paper's architecture (Fig. 2) has one SDN controller
// managing a *set* of NF hosts; the datapath id is how the control plane
// tells their flow tables apart: southbound sessions are registered under
// it and every northbound request carries it, so compiled rules and
// policy verdicts are scoped to the requesting host. Zero is the
// anonymous datapath used by single-host deployments that never name
// themselves.
type DatapathID uint64

// String renders the id in the conventional OpenFlow hex form.
func (d DatapathID) String() string { return fmt.Sprintf("dp:%#x", uint64(d)) }

// ResolveRequest asks the controller for the rules governing a new flow
// first seen at Scope.
type ResolveRequest struct {
	Scope flowtable.ServiceID
	Key   packet.FlowKey
}

// ResolveResult is the per-request outcome of a ResolveBatch.
type ResolveResult struct {
	Rules []flowtable.Rule
	Err   error
}

// Stats is a snapshot of a controller's southbound activity. The
// counters partition cleanly so experiment arithmetic stays meaningful:
//
//   - Requests counts resolve requests admitted to the event queue. A
//     request refused at admission is counted in Rejected only, never
//     in Requests, so offered load = Requests + Rejected and the
//     admitted/offered acceptance ratio is Requests/(Requests+Rejected).
//   - Rejected counts resolve requests refused with ErrQueueFull.
//   - FlowMods counts rules compiled and shipped in response to
//     admitted requests (≥ Requests when graphs compile to multi-rule
//     chains; 0 for failed compilations).
//   - NFMsgs counts cross-layer messages routed to the northbound tier,
//     whether or not policy validation accepted them.
//   - NoticesFailed counts flow-removed notices received over the wire
//     that the northbound tier failed to record; the wire has no reply
//     to carry the error back.
//   - RepliesFailed counts admitted wire requests whose reply (ErrorMsg,
//     FlowMods or terminating Barrier) could not be written back to the
//     peer: the channel died between admission and answer.
type Stats struct {
	Requests      uint64 `metric:"requests_total" help:"Flow-resolve requests admitted."`
	Rejected      uint64 `metric:"rejected_total" help:"Flow-resolve requests refused (queue full)."`
	FlowMods      uint64 `metric:"flow_mods_total" help:"Rules compiled and shipped to datapaths."`
	NFMsgs        uint64 `metric:"nf_msgs_total" help:"Cross-layer NF messages routed northbound."`
	NoticesFailed uint64 `metric:"notices_failed_total" help:"Flow-removed notices from wire peers the northbound tier failed to record."`
	RepliesFailed uint64 `metric:"replies_failed_total" help:"Admitted wire requests whose reply could not be written back to the peer."`
}

// FlowRemovedReason says which timeout evicted a flow rule.
type FlowRemovedReason uint8

const (
	// RemovedIdleTimeout: no packet hit the rule within its idle window.
	RemovedIdleTimeout FlowRemovedReason = iota
	// RemovedHardTimeout: the rule outlived its hard lifetime.
	RemovedHardTimeout
)

// String renders the reason as its telemetry label.
func (r FlowRemovedReason) String() string {
	if r == RemovedHardTimeout {
		return "hard"
	}
	return "idle"
}

// FlowRemoved describes one flow rule a datapath evicted by timeout —
// the OpenFlow flow-removed notification, batched per sweep. The tuple
// (Scope, Match) identifies which state to drop; RuleID is the
// datapath-local rule identity for logging and correlation.
type FlowRemoved struct {
	Scope  flowtable.ServiceID
	Match  flowtable.Match
	RuleID uint64
	Reason FlowRemovedReason
}

// Southbound is the NF Manager's typed, asynchronous view of its SDN
// controller. Implementations must be safe for concurrent use: the Flow
// Controller thread pipelines batches while the manager loop forwards
// messages.
type Southbound interface {
	// ResolveBatch resolves reqs with all requests in flight at once
	// (pipelined over the wire; fanned across workers in process) and
	// writes one ResolveResult per request into out, which must be at
	// least len(reqs) long. It returns when every slot is filled.
	ResolveBatch(ctx context.Context, reqs []ResolveRequest, out []ResolveResult)
	// SendNFMessage forwards a validated cross-layer message upstream.
	// In-process backends report northbound rejection synchronously via
	// ErrRejected; wire backends deliver asynchronously and may return
	// nil before the verdict is known.
	SendNFMessage(ctx context.Context, src flowtable.ServiceID, m nf.Message) error
	// NotifyFlowRemoved reports a batch of rules the datapath evicted by
	// timeout (OpenFlow flow-removed), so the controller and application
	// tiers can drop their side of the per-flow state. Notifications are
	// fire-and-forget: wire backends may return nil before delivery.
	NotifyFlowRemoved(ctx context.Context, removals []FlowRemoved) error
}

// Northbound is the SDN controller's typed view of the SDNFV
// Application tier: the service-graph registry compiled into rules, the
// cross-layer message validator, and the flow-removed sink. Every
// request names the datapath (NF host) it concerns, so a multi-host
// application can compile per-host rule sets and attribute messages to
// the emitting host; single-host applications may ignore it.
type Northbound interface {
	// CompileFlow produces the rules to install on datapath dp for a new
	// flow first seen at scope, compiled from the application's service
	// graphs (and, for multi-host deployments, its placement).
	CompileFlow(ctx context.Context, dp DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error)
	// HandleNFMessage validates and records a cross-layer message
	// emitted by an NF of service src on datapath dp. A policy refusal
	// is reported as an error wrapping ErrRejected.
	HandleNFMessage(ctx context.Context, dp DatapathID, src flowtable.ServiceID, m nf.Message) error
	// HandleFlowRemoved records a batch of timeout evictions reported by
	// datapath dp, letting the application release per-flow bookkeeping.
	HandleFlowRemoved(ctx context.Context, dp DatapathID, removals []FlowRemoved) error
}

// SouthboundFuncs adapts plain functions to Southbound; handy in tests
// and simulations. Nil fields degrade gracefully: every resolution
// reports ErrNoCompiler, SendNFMessage and NotifyFlowRemoved discard.
type SouthboundFuncs struct {
	// ResolveFunc answers one request; ResolveBatch calls it per slot.
	ResolveFunc           func(ctx context.Context, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error)
	SendNFMessageFun      func(ctx context.Context, src flowtable.ServiceID, m nf.Message) error
	NotifyFlowRemovedFunc func(ctx context.Context, removals []FlowRemoved) error
}

// ResolveBatch implements Southbound by resolving sequentially.
func (s SouthboundFuncs) ResolveBatch(ctx context.Context, reqs []ResolveRequest, out []ResolveResult) {
	for i, r := range reqs {
		if s.ResolveFunc == nil {
			out[i] = ResolveResult{Err: ErrNoCompiler}
			continue
		}
		rules, err := s.ResolveFunc(ctx, r.Scope, r.Key)
		out[i] = ResolveResult{Rules: rules, Err: err}
	}
}

// SendNFMessage implements Southbound.
func (s SouthboundFuncs) SendNFMessage(ctx context.Context, src flowtable.ServiceID, m nf.Message) error {
	if s.SendNFMessageFun == nil {
		return nil
	}
	return s.SendNFMessageFun(ctx, src, m)
}

// NotifyFlowRemoved implements Southbound; nil func discards.
func (s SouthboundFuncs) NotifyFlowRemoved(ctx context.Context, removals []FlowRemoved) error {
	if s.NotifyFlowRemovedFunc == nil {
		return nil
	}
	return s.NotifyFlowRemovedFunc(ctx, removals)
}

// NorthboundFuncs adapts plain functions to Northbound. Nil fields
// degrade gracefully: CompileFlow reports ErrNoCompiler, HandleNFMessage
// and HandleFlowRemoved accept.
type NorthboundFuncs struct {
	CompileFlowFunc       func(ctx context.Context, dp DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error)
	HandleNFMessageFunc   func(ctx context.Context, dp DatapathID, src flowtable.ServiceID, m nf.Message) error
	HandleFlowRemovedFunc func(ctx context.Context, dp DatapathID, removals []FlowRemoved) error
}

// CompileFlow implements Northbound.
func (n NorthboundFuncs) CompileFlow(ctx context.Context, dp DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
	if n.CompileFlowFunc == nil {
		return nil, ErrNoCompiler
	}
	return n.CompileFlowFunc(ctx, dp, scope, key)
}

// HandleNFMessage implements Northbound.
func (n NorthboundFuncs) HandleNFMessage(ctx context.Context, dp DatapathID, src flowtable.ServiceID, m nf.Message) error {
	if n.HandleNFMessageFunc == nil {
		return nil
	}
	return n.HandleNFMessageFunc(ctx, dp, src, m)
}

// HandleFlowRemoved implements Northbound; nil func accepts.
func (n NorthboundFuncs) HandleFlowRemoved(ctx context.Context, dp DatapathID, removals []FlowRemoved) error {
	if n.HandleFlowRemovedFunc == nil {
		return nil
	}
	return n.HandleFlowRemovedFunc(ctx, dp, removals)
}

var (
	_ Southbound = SouthboundFuncs{}
	_ Northbound = NorthboundFuncs{}
)
