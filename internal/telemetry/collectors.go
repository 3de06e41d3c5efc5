package telemetry

// Collectors over every layer that owns statistics. Each Register*
// function is idempotent-by-registry: the first call installs one
// collector and its show paths, later calls extend the same set (a
// process with two in-memory hosts registers each and gets one
// sdnfv_host_* family with two label sets, not a duplicate-family
// panic).
//
// Everything here runs at scrape/query time on the scraper's goroutine
// and reads the snapshot accessors the layers already expose
// (Host.Stats, Link.Stats, Session.Stats, autoscale.Controller.Stats).
// Nothing is //sdnfv:hotpath-annotated and nothing may be — the lint
// fixture in internal/lint/analyzers/testdata pins that boundary.

import (
	"context"
	"sort"
	"strconv"
	"sync"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
)

// Show paths registered by the collectors in this file.
const (
	PathHosts     = "/state/dataplane/hosts"
	PathReplicas  = "/state/dataplane/replicas"
	PathPorts     = "/state/ports"
	PathFlowtable = "/state/flowtable"
	PathLinks     = "/state/cluster/links"
	PathSessions  = "/state/control/sessions"
	PathAutoscale = "/state/autoscale"
)

// DefaultLatencyBoundsNs is the decade ladder used for latency
// histograms: 1µs to 10s in nanoseconds.
var DefaultLatencyBoundsNs = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// ---------------------------------------------------------------- hosts

type hostEntry struct {
	name string
	dp   control.DatapathID
	host *dataplane.Host
}

type hostSet struct {
	mu    sync.Mutex
	hosts []hostEntry
}

func (s *hostSet) snapshot() []hostEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]hostEntry(nil), s.hosts...)
}

// RegisterHost exposes one NF Manager host's statistics — host
// counters, pool and flow-table activity, per-replica load, and
// per-port driver telemetry — under labels {host, datapath}. Repeated
// calls on the same registry add hosts to one collector.
func RegisterHost(r *Registry, name string, dp control.DatapathID, h *dataplane.Host) {
	set := r.shared("dataplane.hosts", func() any {
		s := &hostSet{}
		r.MustRegister(CollectorFunc(s.collect))
		r.MustRegisterShow(PathHosts, s.showHosts)
		r.MustRegisterShow(PathReplicas, s.showReplicas)
		r.MustRegisterShow(PathPorts, s.showPorts)
		r.MustRegisterShow(PathFlowtable, s.showFlowtable)
		return s
	}).(*hostSet)
	set.mu.Lock()
	set.hosts = append(set.hosts, hostEntry{name: name, dp: dp, host: h})
	set.mu.Unlock()
}

func (s *hostSet) collect() []Family {
	b := newFamilyBuilder()
	for _, e := range s.snapshot() {
		st := e.host.Stats()
		hl := []Label{{"host", e.name}, {"datapath", e.dp.String()}}

		hostCounters := []struct {
			name, help string
			v          uint64
		}{
			{"sdnfv_host_rx_packets_total", "Packets admitted into the host (wire ingests and injects).", st.RxPackets},
			{"sdnfv_host_tx_packets_total", "Packets delivered out an egress port.", st.TxPackets},
			{"sdnfv_host_drops_total", "Admitted packets discarded by policy or manager-ring overload.", st.Drops},
			{"sdnfv_host_overflows_total", "Packets or fan-out offers refused by full NF input rings.", st.Overflows},
			{"sdnfv_host_tx_drops_total", "Frames that reached egress but could not be delivered.", st.TxDrops},
			{"sdnfv_host_rx_drops_total", "Wire frames refused at the driver ingress boundary.", st.RxDrops},
			{"sdnfv_host_release_errors_total", "Failed pool releases (refcounting bugs made visible).", st.ReleaseErrs},
			{"sdnfv_host_misses_total", "Flow-table misses escalated to the controller.", st.Misses},
			{"sdnfv_host_ctrl_messages_total", "Cross-layer messages from NFs handled by the manager.", st.CtrlMessages},
			{"sdnfv_host_msgs_rejected_total", "Cross-layer messages refused (invalid or policy-rejected).", st.MsgsRejected},
			{"sdnfv_control_notices_refused_total", "Flow-removed notices the southbound refused to carry upstream.", st.NoticesRefused},
			{"sdnfv_host_pool_allocs_total", "Buffer pool allocations.", st.Pool.Allocs},
			{"sdnfv_host_pool_frees_total", "Buffer pool releases.", st.Pool.Frees},
			{"sdnfv_host_pool_alloc_fails_total", "Buffer pool allocation failures (pool exhausted).", st.Pool.AllocFails},
			{"sdnfv_flowtable_lookups_total", "Flow table lookups.", st.Table.Lookups},
			{"sdnfv_flowtable_misses_total", "Flow table lookup misses.", st.Table.Misses},
			{"sdnfv_flowtable_modifies_total", "Flow table rule modifications.", st.Table.Modifies},
			{"sdnfv_flowtable_adds_total", "Flow table rules created (new rule IDs).", st.Table.Adds},
			{"sdnfv_flowtable_deletes_total", "Flow table rules removed by explicit Delete.", st.Table.Deleted},
			{"sdnfv_flowtable_expired_lookups_total", "Lookups that observed a timed-out entry before the sweeper reaped it.", st.Table.ExpiredLookups},
			{"sdnfv_flowtable_sweeps_total", "Background eviction sweep passes.", st.Table.Sweeps},
			{"sdnfv_flowtable_sweep_nanos_total", "Cumulative sweep-pass duration in nanoseconds.", st.Table.SweepNanos},
		}
		for _, c := range hostCounters {
			b.counter(c.name, c.help, hl, float64(c.v))
		}
		for _, ev := range []struct {
			reason string
			v      uint64
		}{
			{"idle", st.Table.EvictedIdle},
			{"hard", st.Table.EvictedHard},
		} {
			b.counter("sdnfv_flowtable_evictions_total",
				"Rules evicted by the lifecycle sweeper, by timeout reason.",
				append(append([]Label(nil), hl...), Label{"reason", ev.reason}), float64(ev.v))
		}
		b.gauge("sdnfv_host_pool_in_use", "Buffers currently allocated from the pool.", hl, float64(st.Pool.InUse))
		b.gauge("sdnfv_flowtable_rules", "Rules currently installed in the flow table.", hl, float64(st.Table.Rules))
		b.gauge("sdnfv_flowtable_entries", "Live entries in the flow table (alias of sdnfv_flowtable_rules for dashboards keyed on entries).", hl, float64(st.Table.Rules))

		for _, rs := range st.Replicas {
			rl := []Label{
				{"host", e.name},
				{"service", rs.Service.String()},
				{"replica", strconv.Itoa(rs.Index)},
				{"nf", rs.Name},
			}
			b.counter("sdnfv_replica_processed_total", "Packets handed to the NF replica.", rl, float64(rs.Processed))
			b.counter("sdnfv_replica_overflow_drops_total", "Offers refused because the replica's input rings were full.", rl, float64(rs.OverflowDrops))
			b.gauge("sdnfv_replica_queue_depth", "Descriptors waiting in the replica's input rings.", rl, float64(rs.QueueDepth))
			b.gauge("sdnfv_replica_service_time_ns", "EWMA per-packet NF service time in nanoseconds.", rl, rs.ServiceTimeNs)
		}

		for _, ps := range st.Ports {
			pl := []Label{
				{"host", e.name},
				{"port", strconv.Itoa(ps.Port)},
				{"driver", ps.Driver},
			}
			portCounters := []struct {
				name, help string
				v          uint64
			}{
				{"sdnfv_port_rx_frames_total", "Frames read off the wire and offered to host ingress.", ps.RxFrames},
				{"sdnfv_port_rx_bytes_total", "Bytes read off the wire.", ps.RxBytes},
				{"sdnfv_port_tx_frames_total", "Frames written to the wire.", ps.TxFrames},
				{"sdnfv_port_tx_bytes_total", "Bytes written to the wire.", ps.TxBytes},
				{"sdnfv_port_rx_oversize_total", "Wire frames dropped for exceeding the ingress frame cap.", ps.RxOversize},
				{"sdnfv_port_rx_truncated_total", "Short reads and truncated framing.", ps.RxTruncated},
				{"sdnfv_port_rx_refused_total", "Wire frames that never entered the packet path.", ps.RxRefused},
				{"sdnfv_port_tx_drops_total", "Egress frames never written to the wire.", ps.TxDrops},
				{"sdnfv_port_reconnects_total", "Re-established driver connections.", ps.Reconnects},
			}
			for _, c := range portCounters {
				b.counter(c.name, c.help, pl, float64(c.v))
			}
		}
	}
	return b.families()
}

func (s *hostSet) showHosts(context.Context) (any, error) {
	type hostState struct {
		Host     string              `json:"host"`
		Datapath string              `json:"datapath"`
		Stats    dataplane.HostStats `json:"stats"`
	}
	out := []hostState{}
	for _, e := range s.snapshot() {
		st := e.host.Stats()
		// The flattened views have their own paths.
		st.Replicas, st.Ports = nil, nil
		out = append(out, hostState{Host: e.name, Datapath: e.dp.String(), Stats: st})
	}
	return out, nil
}

func (s *hostSet) showReplicas(context.Context) (any, error) {
	type replicaState struct {
		Host          string  `json:"host"`
		Service       string  `json:"service"`
		Replica       int     `json:"replica"`
		NF            string  `json:"nf"`
		QueueDepth    int     `json:"queue_depth"`
		Processed     uint64  `json:"processed"`
		OverflowDrops uint64  `json:"overflow_drops"`
		ServiceTimeNs float64 `json:"service_time_ns"`
	}
	out := []replicaState{}
	for _, e := range s.snapshot() {
		for _, rs := range e.host.Stats().Replicas {
			out = append(out, replicaState{
				Host: e.name, Service: rs.Service.String(), Replica: rs.Index, NF: rs.Name,
				QueueDepth: rs.QueueDepth, Processed: rs.Processed,
				OverflowDrops: rs.OverflowDrops, ServiceTimeNs: rs.ServiceTimeNs,
			})
		}
	}
	return out, nil
}

// showFlowtable is the /state/flowtable handler: one row per host with
// the table's full lifecycle accounting — live entries, lazy vs swept
// eviction counters, and mean sweep latency.
func (s *hostSet) showFlowtable(context.Context) (any, error) {
	type flowtableState struct {
		Host           string `json:"host"`
		Datapath       string `json:"datapath"`
		Entries        int    `json:"entries"`
		Adds           uint64 `json:"adds"`
		Deleted        uint64 `json:"deleted"`
		EvictedIdle    uint64 `json:"evicted_idle"`
		EvictedHard    uint64 `json:"evicted_hard"`
		ExpiredLookups uint64 `json:"expired_lookups"`
		Lookups        uint64 `json:"lookups"`
		Misses         uint64 `json:"misses"`
		Modifies       uint64 `json:"modifies"`
		Sweeps         uint64 `json:"sweeps"`
		MeanSweepNs    uint64 `json:"mean_sweep_ns"`
	}
	out := []flowtableState{}
	for _, e := range s.snapshot() {
		st := e.host.Stats().Table
		var mean uint64
		if st.Sweeps > 0 {
			mean = st.SweepNanos / st.Sweeps
		}
		out = append(out, flowtableState{
			Host: e.name, Datapath: e.dp.String(),
			Entries: st.Rules, Adds: st.Adds, Deleted: st.Deleted,
			EvictedIdle: st.EvictedIdle, EvictedHard: st.EvictedHard,
			ExpiredLookups: st.ExpiredLookups,
			Lookups:        st.Lookups, Misses: st.Misses, Modifies: st.Modifies,
			Sweeps: st.Sweeps, MeanSweepNs: mean,
		})
	}
	return out, nil
}

func (s *hostSet) showPorts(context.Context) (any, error) {
	type portState struct {
		Host   string                `json:"host"`
		Port   int                   `json:"port"`
		Driver string                `json:"driver"`
		Stats  dataplane.DriverStats `json:"stats"`
	}
	out := []portState{}
	for _, e := range s.snapshot() {
		for _, ps := range e.host.Stats().Ports {
			out = append(out, portState{Host: e.name, Port: ps.Port, Driver: ps.Driver, Stats: ps.DriverStats})
		}
	}
	return out, nil
}

// -------------------------------------------------------------- cluster

// RegisterCluster exposes the fabric's inter-host links under labels
// {link, src, dst} (link is "src:outPort->dst:inPort") and registers
// the /state/cluster/links show path.
func RegisterCluster(r *Registry, f *cluster.Fabric) {
	r.shared("cluster.fabric", func() any {
		r.MustRegister(CollectorFunc(func() []Family { return collectLinks(f) }))
		r.MustRegisterShow(PathLinks, func(context.Context) (any, error) {
			return showLinks(f), nil
		})
		return f
	})
}

func linkName(l *cluster.Link) string {
	return l.Src.String() + ":" + strconv.Itoa(l.OutPort) + "->" + l.Dst.String() + ":" + strconv.Itoa(l.InPort)
}

func collectLinks(f *cluster.Fabric) []Family {
	b := newFamilyBuilder()
	for _, l := range f.Links() {
		st := l.Stats()
		ll := []Label{{"link", linkName(l)}, {"src", l.Src.String()}, {"dst", l.Dst.String()}}
		b.counter("sdnfv_link_tx_frames_total", "Frames delivered into the peer host.", ll, float64(st.TxFrames))
		b.counter("sdnfv_link_tx_bytes_total", "Bytes delivered into the peer host.", ll, float64(st.TxBytes))
		b.counter("sdnfv_link_drops_total", "Frames the peer host refused to inject.", ll, float64(st.Drops))
	}
	return b.families()
}

func showLinks(f *cluster.Fabric) any {
	type linkState struct {
		Link     string `json:"link"`
		Src      string `json:"src"`
		Dst      string `json:"dst"`
		OutPort  int    `json:"out_port"`
		InPort   int    `json:"in_port"`
		TxFrames uint64 `json:"tx_frames"`
		TxBytes  uint64 `json:"tx_bytes"`
		Drops    uint64 `json:"drops"`
	}
	out := []linkState{}
	for _, l := range f.Links() {
		st := l.Stats()
		out = append(out, linkState{
			Link: linkName(l), Src: l.Src.String(), Dst: l.Dst.String(),
			OutPort: l.OutPort, InPort: l.InPort,
			TxFrames: st.TxFrames, TxBytes: st.TxBytes, Drops: st.Drops,
		})
	}
	return out
}

// ----------------------------------------------------------- controller

// RegisterController exposes the SDN controller's aggregate counters
// (no labels) and each session's counters under label {session} (the
// peer's datapath id), plus the /state/control/sessions show path.
func RegisterController(r *Registry, c *controller.Controller) {
	r.shared("controller", func() any {
		r.MustRegister(CollectorFunc(func() []Family { return collectController(c) }))
		r.MustRegisterShow(PathSessions, func(ctx context.Context) (any, error) {
			return showSessions(ctx, c)
		})
		return c
	})
}

func controllerCounters(b *familyBuilder, prefix string, labels []Label, st control.Stats) {
	b.counter(prefix+"requests_total", "Flow-resolve requests admitted.", labels, float64(st.Requests))
	b.counter(prefix+"rejected_total", "Flow-resolve requests refused (queue full).", labels, float64(st.Rejected))
	b.counter(prefix+"flow_mods_total", "Rules compiled and shipped to datapaths.", labels, float64(st.FlowMods))
	b.counter(prefix+"nf_msgs_total", "Cross-layer NF messages routed northbound.", labels, float64(st.NFMsgs))
}

func collectController(c *controller.Controller) []Family {
	b := newFamilyBuilder()
	st, _ := c.Stats(context.Background())
	controllerCounters(b, "sdnfv_controller_", nil, st)
	for _, dp := range c.Datapaths() {
		ss, err := c.Session(dp).Stats(context.Background())
		if err != nil {
			continue
		}
		controllerCounters(b, "sdnfv_controller_session_", []Label{{"session", dp.String()}}, ss)
	}
	return b.families()
}

func showSessions(ctx context.Context, c *controller.Controller) (any, error) {
	type sessionState struct {
		Session string        `json:"session"`
		Stats   control.Stats `json:"stats"`
	}
	agg, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	sessions := []sessionState{}
	for _, dp := range c.Datapaths() {
		ss, err := c.Session(dp).Stats(ctx)
		if err != nil {
			continue
		}
		sessions = append(sessions, sessionState{Session: dp.String(), Stats: ss})
	}
	return map[string]any{"aggregate": agg, "sessions": sessions}, nil
}

// ------------------------------------------------------------ autoscale

// RegisterAutoscale exposes the autoscale policy loops scalers returns
// under label {service} (decisions additionally by {decision}) and the
// /state/autoscale show path. scalers is called on every scrape, so
// loops the reconciler creates, moves after a failover, or removes are
// exported without re-registration.
func RegisterAutoscale(r *Registry, scalers func() map[flowtable.ServiceID]*autoscale.Controller) {
	r.shared("autoscale", func() any {
		r.MustRegister(CollectorFunc(func() []Family { return collectScalers(scalerStates(scalers())) }))
		r.MustRegisterShow(PathAutoscale, func(context.Context) (any, error) {
			return scalerStates(scalers()), nil
		})
		return scalers
	})
}

type scalerState struct {
	Service string          `json:"service"`
	Stats   autoscale.Stats `json:"stats"`
}

// scalerStates snapshots each loop, ascending by service scope.
func scalerStates(scalers map[flowtable.ServiceID]*autoscale.Controller) []scalerState {
	ids := make([]flowtable.ServiceID, 0, len(scalers))
	for id := range scalers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]scalerState, len(ids))
	for i, id := range ids {
		out[i] = scalerState{Service: id.String(), Stats: scalers[id].Stats()}
	}
	return out
}

func collectScalers(states []scalerState) []Family {
	b := newFamilyBuilder()
	for _, e := range states {
		st := e.Stats
		sl := []Label{{"service", e.Service}}
		b.counter("sdnfv_autoscale_ticks_total", "Autoscale policy evaluations.", sl, float64(st.Ticks))
		b.counter("sdnfv_autoscale_errors_total", "Actuator failures on scale decisions.", sl, float64(st.Errors))
		b.counter("sdnfv_autoscale_decisions_total", "Actuated scale decisions by direction.",
			append(sl, Label{"decision", autoscale.Up.String()}), float64(st.Ups))
		b.counter("sdnfv_autoscale_decisions_total", "Actuated scale decisions by direction.",
			append(sl, Label{"decision", autoscale.Down.String()}), float64(st.Downs))
		b.gauge("sdnfv_autoscale_replicas", "Live replicas at the last tick.", sl, float64(st.Last.Replicas))
		b.gauge("sdnfv_autoscale_pending", "Replica boots in flight at the last tick.", sl, float64(st.Last.Pending))
		b.gauge("sdnfv_autoscale_backlog", "Queued descriptors across replicas at the last tick.", sl, float64(st.Last.Backlog))
		b.gauge("sdnfv_autoscale_service_time_ns", "Mean per-packet service time at the last tick.", sl, st.Last.ServiceTimeNs)
	}
	return b.families()
}

// ------------------------------------------------------------ histogram

// NewHistogramCollector exposes a metrics.Histogram as one Prometheus
// histogram family, exporting onto the given upper bounds (e.g.
// DefaultLatencyBoundsNs).
func NewHistogramCollector(name, help string, labels []Label, h *metrics.Histogram, bounds []float64) Collector {
	return CollectorFunc(func() []Family {
		cum, count, sum := h.Export(bounds)
		buckets := make([]Bucket, len(bounds))
		for i, ub := range bounds {
			buckets[i] = Bucket{UpperBound: ub, Count: cum[i]}
		}
		b := newFamilyBuilder()
		b.histogram(name, help, Sample{Labels: labels, Buckets: buckets, Sum: sum, Count: count})
		return b.families()
	})
}
