package nfs

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sdnfv/internal/acmatch"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// FirewallRule is one allow/deny rule matched in order.
type FirewallRule struct {
	Match flowtable.Match
	Allow bool
}

// Firewall filters packets against an ordered rule list; unmatched packets
// fall through to DefaultAllow. It is loosely coupled: it never names the
// next service, it only drops or follows the default path (§3.4 "a
// Firewall NF may have no knowledge of other NFs in the service graph").
type Firewall struct {
	Rules        []FirewallRule
	DefaultAllow bool

	allowed atomic.Uint64
	denied  atomic.Uint64
}

// Name implements nf.BatchFunction.
func (f *Firewall) Name() string { return "firewall" }

// ReadOnly implements nf.BatchFunction.
func (f *Firewall) ReadOnly() bool { return true }

// ProcessBatch implements nf.BatchFunction.
func (f *Firewall) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	var allowed, denied uint64
	for i := range batch {
		if f.permit(batch[i].Key) {
			allowed++
			continue
		}
		denied++
		out[i] = nf.Discard()
	}
	f.allowed.Add(allowed)
	f.denied.Add(denied)
}

// permit evaluates the rule list for one flow key.
func (f *Firewall) permit(k packet.FlowKey) bool {
	for _, r := range f.Rules {
		if r.Match.Matches(k) {
			return r.Allow
		}
	}
	return f.DefaultAllow
}

// Allowed returns the number of packets passed.
func (f *Firewall) Allowed() uint64 { return f.allowed.Load() }

// Denied returns the number of packets dropped.
func (f *Firewall) Denied() uint64 { return f.denied.Load() }

var _ nf.BatchFunction = (*Firewall)(nil)

// Sampler forwards a subset of traffic for deeper analysis (§2.2): sampled
// packets follow the default edge (into the analysis segment); the rest
// take the bypass edge. Sampling is by flow hash so a flow is either fully
// sampled or fully bypassed, which the analysis NFs need.
type Sampler struct {
	// Rate is the sampled fraction in [0,1].
	Rate float64
	// Bypass is the service (or sink port action via SendTo) that
	// unsampled traffic proceeds to.
	Bypass flowtable.ServiceID
}

// Name implements nf.BatchFunction.
func (s *Sampler) Name() string { return "sampler" }

// ReadOnly implements nf.BatchFunction.
func (s *Sampler) ReadOnly() bool { return true }

// ProcessBatch implements nf.BatchFunction.
func (s *Sampler) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	for i := range batch {
		// Map the flow hash to [0,1) deterministically.
		if frac := float64(batch[i].Key.Hash()%1_000_000) / 1_000_000; frac >= s.Rate {
			out[i] = nf.SendTo(s.Bypass)
		}
	}
}

var _ nf.BatchFunction = (*Sampler)(nil)

// IDS scans payloads for malicious signatures (e.g. SQL exploits in HTTP
// packets, §2.2) with an Aho–Corasick automaton. On a hit it redirects the
// flow to the Scrubber — both this packet (SendTo) and all subsequent
// packets (ChangeDefault) — the tightly-coupled pattern of §3.4: "an IDS NF
// might always be deployed as a pair with a Scrubber NF". Flagged flows
// live in the engine-owned flow store, so the manager can inspect which
// flows are quarantined and the set survives an IDS restart.
type IDS struct {
	// Matcher holds the signature set; Init rejects a nil matcher.
	Matcher *acmatch.Matcher
	// Scrubber is the service suspicious flows are diverted to.
	Scrubber flowtable.ServiceID

	scanned atomic.Uint64
	alerts  atomic.Uint64
}

// ErrNoSignatures reports an IDS launched without a signature set.
var ErrNoSignatures = errors.New("nfs: IDS has no signature matcher")

// Name implements nf.BatchFunction.
func (d *IDS) Name() string { return "ids" }

// ReadOnly implements nf.BatchFunction.
func (d *IDS) ReadOnly() bool { return true }

// Init implements nf.Initializer: an IDS without signatures would
// silently pass everything, so refuse to launch.
func (d *IDS) Init(_ *nf.Context) error {
	if d.Matcher == nil {
		return ErrNoSignatures
	}
	return nil
}

// ProcessBatch implements nf.BatchFunction.
func (d *IDS) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	d.scanned.Add(uint64(len(batch)))
	flagged := ctx.FlowState()
	for i := range batch {
		p := &batch[i]
		if _, bad := flagged.Get(p.Key); bad {
			out[i] = nf.SendTo(d.Scrubber)
			continue
		}
		if p.View.Valid() && d.Matcher != nil && d.Matcher.Contains(p.View.Payload()) {
			d.alerts.Add(1)
			flagged.Set(p.Key, true)
			// All subsequent packets in the flow divert to the scrubber.
			// Duplicate ChangeDefaults within the burst collapse at flush.
			ctx.Send(nf.Message{
				Kind:  nf.MsgChangeDefault,
				Flows: flowtable.ExactMatch(p.Key),
				S:     ctx.Service,
				T:     d.Scrubber,
			})
			out[i] = nf.SendTo(d.Scrubber)
		}
	}
}

// Alerts returns the number of signature hits.
func (d *IDS) Alerts() uint64 { return d.alerts.Load() }

// Scanned returns the number of packets scanned.
func (d *IDS) Scanned() uint64 { return d.scanned.Load() }

var (
	_ nf.BatchFunction = (*IDS)(nil)
	_ nf.Initializer   = (*IDS)(nil)
)

// DDoSDetector aggregates traffic volume across all flows per source /24
// prefix inside a monitoring window; when the aggregate rate crosses
// Threshold it raises an alarm once via Message (§5.2: "The NF uses the
// Message call to propagate this alarm through the NF Manager to the
// SDNFV Application"). The clock is caller-supplied so the same NF runs
// under real and virtual time.
type DDoSDetector struct {
	// ThresholdBps is the alarm threshold in bits/second (paper: 3.2 Gbps).
	ThresholdBps float64
	// WindowSec is the monitoring window length in seconds.
	WindowSec float64
	// Now returns the current time in seconds.
	Now func() float64

	winStart     float64
	winBytes     map[uint32]float64 // per /24 prefix
	alarmed      map[uint32]bool
	alarmsRaised atomic.Uint64
}

// Name implements nf.BatchFunction.
func (d *DDoSDetector) Name() string { return "ddos-detector" }

// ReadOnly implements nf.BatchFunction.
func (d *DDoSDetector) ReadOnly() bool { return true }

// Init implements nf.Initializer, allocating the window aggregates.
func (d *DDoSDetector) Init(_ *nf.Context) error {
	if d.winBytes == nil {
		d.winBytes = make(map[uint32]float64)
		d.alarmed = make(map[uint32]bool)
	}
	return nil
}

// Close implements nf.Closer, dropping the window aggregates.
func (d *DDoSDetector) Close() error {
	d.winBytes = nil
	d.alarmed = nil
	return nil
}

// ProcessBatch implements nf.BatchFunction. Init must have run (the
// engine guarantees it; standalone drivers call it directly). The clock
// is read once per burst: packets of one burst arrive together, so
// sub-burst window boundaries are not observable.
func (d *DDoSDetector) ProcessBatch(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
	now := 0.0
	if d.Now != nil {
		now = d.Now()
	}
	win := d.WindowSec
	if win <= 0 {
		win = 1
	}
	if now-d.winStart >= win {
		clear(d.winBytes)
		d.winStart = now
	}
	for i := range batch {
		p := &batch[i]
		prefix := uint32(p.Key.SrcIP) >> 8
		d.winBytes[prefix] += float64(len(p.View.Buf()))
		rateBps := d.winBytes[prefix] * 8 / win
		if rateBps >= d.ThresholdBps && !d.alarmed[prefix] {
			d.alarmed[prefix] = true
			d.alarmsRaised.Add(1)
			ctx.Send(nf.Message{
				Kind:  nf.MsgData,
				S:     ctx.Service,
				Key:   "ddos.alarm",
				Value: fmt.Sprintf("prefix=%s rate=%.0fbps", packet.IP(prefix<<8), rateBps),
			})
		}
	}
}

// Alarms returns how many alarm messages were raised.
func (d *DDoSDetector) Alarms() uint64 { return d.alarmsRaised.Load() }

var (
	_ nf.BatchFunction = (*DDoSDetector)(nil)
	_ nf.Initializer   = (*DDoSDetector)(nil)
	_ nf.Closer        = (*DDoSDetector)(nil)
)

// Scrubber inspects diverted traffic in detail and drops packets matching
// the malicious predicate; clean packets continue on the default path.
// When AnnounceFlows is set, the Init lifecycle hook sends the RequestMe
// that reroutes upstream defaults through the scrubber on launch (§5.2).
type Scrubber struct {
	// Malicious classifies a packet as attack traffic to be dropped. Nil
	// means drop nothing.
	Malicious func(p *nf.Packet) bool
	// AnnounceFlows, when non-nil, is the flow set announced with
	// RequestMe at Init.
	AnnounceFlows *flowtable.Match

	dropped atomic.Uint64
	passed  atomic.Uint64
}

// Name implements nf.BatchFunction.
func (s *Scrubber) Name() string { return "scrubber" }

// ReadOnly implements nf.BatchFunction.
func (s *Scrubber) ReadOnly() bool { return true }

// Init implements nf.Initializer: announce on launch when configured.
func (s *Scrubber) Init(ctx *nf.Context) error {
	if s.AnnounceFlows != nil {
		s.Announce(ctx, *s.AnnounceFlows)
	}
	return nil
}

// ProcessBatch implements nf.BatchFunction.
func (s *Scrubber) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	var dropped, passed uint64
	for i := range batch {
		if s.Malicious != nil && s.Malicious(&batch[i]) {
			dropped++
			out[i] = nf.Discard()
			continue
		}
		passed++
	}
	s.dropped.Add(dropped)
	s.passed.Add(passed)
}

// Announce sends the RequestMe message making this scrubber the default
// next hop for flows matching f at every upstream node with an edge to it.
// Call it from the NF's own goroutine (Init or batch processing).
func (s *Scrubber) Announce(ctx *nf.Context, f flowtable.Match) {
	ctx.Send(nf.Message{Kind: nf.MsgRequestMe, Flows: f, S: ctx.Service})
}

// Dropped returns the number of packets scrubbed.
func (s *Scrubber) Dropped() uint64 { return s.dropped.Load() }

// Passed returns the number of packets passed through.
func (s *Scrubber) Passed() uint64 { return s.passed.Load() }

var (
	_ nf.BatchFunction = (*Scrubber)(nil)
	_ nf.Initializer   = (*Scrubber)(nil)
)

// DefaultIDSSignatures is a small signature set representative of the SQL
// exploit patterns the paper's IDS looks for in HTTP packets.
func DefaultIDSSignatures() *acmatch.Matcher {
	return acmatch.New([]string{
		"UNION SELECT",
		"' OR '1'='1",
		"DROP TABLE",
		"/etc/passwd",
		"<script>alert(",
		"cmd.exe",
		"xp_cmdshell",
	})
}
