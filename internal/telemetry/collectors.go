package telemetry

// Collectors over every layer that owns statistics. The metric families
// come from the layers' metric-tagged stats structs (emitStats); a
// collector only builds the labels and picks the family prefix. The
// /state views serve the same structs, embedded next to their identity
// fields, so their JSON keys are the Go field names.
//
// Each Register* call installs one collector and its show paths; a
// process registers each layer once (RegisterHosts takes every host at
// once), and a second call panics on the duplicate show path.
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
	name, dp string
	host     *dataplane.Host
}

// hostSet is the fixed host list RegisterHosts exposes, sorted by name.
type hostSet []hostEntry

// RegisterHosts exposes NF Manager hosts' statistics — host counters,
// pool and flow-table activity under labels {host, datapath}, per-replica
// load under {host, service, replica, nf}, and per-port driver telemetry
// under {host, port, driver} — and their four show paths. hosts and dps
// are keyed by host name, the shape of reconcile.Cluster.Hosts and
// Datapaths.
func RegisterHosts(r *Registry, hosts map[string]*dataplane.Host, dps map[string]control.DatapathID) {
	s := make(hostSet, 0, len(hosts))
	for name, h := range hosts {
		s = append(s, hostEntry{name: name, dp: dps[name].String(), host: h})
	}
	sort.Slice(s, func(i, j int) bool { return s[i].name < s[j].name })
	r.MustRegisterShow(PathHosts, s.showHosts)
	r.MustRegisterShow(PathReplicas, s.showReplicas)
	r.MustRegisterShow(PathPorts, s.showPorts)
	r.MustRegisterShow(PathFlowtable, s.showFlowtable)
	r.MustRegister(CollectorFunc(s.collect))
}

func (s hostSet) collect() []Family {
	b := newFamilyBuilder()
	for _, e := range s {
		st := e.host.Stats()
		emitStats(b, "sdnfv_", []Label{{"host", e.name}, {"datapath", e.dp}}, st)
		for _, rs := range st.Replicas {
			emitStats(b, "sdnfv_replica_", []Label{{"host", e.name}, {"service", rs.Service.String()},
				{"replica", strconv.Itoa(rs.Index)}, {"nf", rs.Name}}, rs)
		}
		for _, ps := range st.Ports {
			emitStats(b, "sdnfv_port_", []Label{{"host", e.name}, {"port", strconv.Itoa(ps.Port)},
				{"driver", ps.Driver}}, ps.DriverStats)
		}
	}
	return b.families()
}

func (s hostSet) showHosts(context.Context) (any, error) {
	type hostView struct {
		Host, Datapath string
		dataplane.HostStats
	}
	out := []hostView{}
	for _, e := range s {
		st := e.host.Stats()
		// The flattened views have their own paths.
		st.Replicas, st.Ports = nil, nil
		out = append(out, hostView{e.name, e.dp, st})
	}
	return out, nil
}

func (s hostSet) showReplicas(context.Context) (any, error) {
	type replicaView struct {
		Host string
		// Service shadows ReplicaStats.Service with the metric label's
		// svc:N form.
		Service string
		dataplane.ReplicaStats
	}
	out := []replicaView{}
	for _, e := range s {
		for _, rs := range e.host.Stats().Replicas {
			out = append(out, replicaView{e.name, rs.Service.String(), rs})
		}
	}
	return out, nil
}

func (s hostSet) showFlowtable(context.Context) (any, error) {
	type flowtableView struct {
		Host, Datapath string
		flowtable.Stats
	}
	out := []flowtableView{}
	for _, e := range s {
		out = append(out, flowtableView{e.name, e.dp, e.host.Stats().Table})
	}
	return out, nil
}

func (s hostSet) showPorts(context.Context) (any, error) {
	type portView struct {
		Host string
		dataplane.PortDriverStats
	}
	out := []portView{}
	for _, e := range s {
		for _, ps := range e.host.Stats().Ports {
			out = append(out, portView{e.name, ps})
		}
	}
	return out, nil
}

// -------------------------------------------------------------- cluster

type linkView struct {
	Link, Src, Dst  string
	OutPort, InPort int
	cluster.LinkStats
}

// linkViews snapshots every fabric link; Link is "src:outPort->dst:inPort".
func linkViews(f *cluster.Fabric) []linkView {
	out := []linkView{}
	for _, l := range f.Links() {
		name := l.Src.String() + ":" + strconv.Itoa(l.OutPort) + "->" + l.Dst.String() + ":" + strconv.Itoa(l.InPort)
		out = append(out, linkView{name, l.Src.String(), l.Dst.String(), l.OutPort, l.InPort, l.Stats()})
	}
	return out
}

// RegisterCluster exposes the fabric's inter-host links under labels
// {link, src, dst} and registers the /state/cluster/links show path.
func RegisterCluster(r *Registry, f *cluster.Fabric) {
	r.MustRegisterShow(PathLinks, func(context.Context) (any, error) { return linkViews(f), nil })
	r.MustRegister(CollectorFunc(func() []Family {
		b := newFamilyBuilder()
		for _, l := range linkViews(f) {
			emitStats(b, "sdnfv_link_", []Label{{"link", l.Link}, {"src", l.Src}, {"dst", l.Dst}}, l.LinkStats)
		}
		return b.families()
	}))
}

// ----------------------------------------------------------- controller

type sessionView struct {
	Session string
	control.Stats
}

// sessionViews snapshots every datapath session, skipping any that
// fails to answer.
func sessionViews(ctx context.Context, c *controller.Controller) []sessionView {
	out := []sessionView{}
	for _, dp := range c.Datapaths() {
		if st, err := c.Session(dp).Stats(ctx); err == nil {
			out = append(out, sessionView{dp.String(), st})
		}
	}
	return out
}

// RegisterController exposes the SDN controller's aggregate counters
// (no labels) and each session's counters under label {session} (the
// peer's datapath id), plus the /state/control/sessions show path.
func RegisterController(r *Registry, c *controller.Controller) {
	r.MustRegisterShow(PathSessions, func(ctx context.Context) (any, error) {
		agg, err := c.Stats(ctx)
		if err != nil {
			return nil, err
		}
		return map[string]any{"aggregate": agg, "sessions": sessionViews(ctx, c)}, nil
	})
	r.MustRegister(CollectorFunc(func() []Family {
		b := newFamilyBuilder()
		st, _ := c.Stats(context.Background())
		emitStats(b, "sdnfv_controller_", nil, st)
		for _, s := range sessionViews(context.Background(), c) {
			emitStats(b, "sdnfv_controller_session_", []Label{{"session", s.Session}}, s.Stats)
		}
		return b.families()
	}))
}

// ------------------------------------------------------------ autoscale

type scalerView struct {
	Service string
	autoscale.Stats
}

// scalerViews snapshots each loop, ascending by service scope.
func scalerViews(scalers map[flowtable.ServiceID]*autoscale.Controller) []scalerView {
	ids := make([]flowtable.ServiceID, 0, len(scalers))
	for id := range scalers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]scalerView, len(ids))
	for i, id := range ids {
		out[i] = scalerView{id.String(), scalers[id].Stats()}
	}
	return out
}

// RegisterAutoscale exposes the autoscale policy loops scalers returns
// under label {service} (decisions additionally by {decision}) and the
// /state/autoscale show path. scalers is called on every scrape, so
// loops the reconciler creates, moves after a failover, or removes are
// exported without re-registration.
func RegisterAutoscale(r *Registry, scalers func() map[flowtable.ServiceID]*autoscale.Controller) {
	r.MustRegisterShow(PathAutoscale, func(context.Context) (any, error) {
		return scalerViews(scalers()), nil
	})
	r.MustRegister(CollectorFunc(func() []Family {
		b := newFamilyBuilder()
		for _, v := range scalerViews(scalers()) {
			emitStats(b, "sdnfv_autoscale_", []Label{{"service", v.Service}}, v.Stats)
		}
		return b.families()
	}))
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
		return []Family{{Name: name, Help: help, Kind: KindHistogram,
			Samples: []Sample{{Labels: labels, Buckets: buckets, Sum: sum, Count: count}}}}
	})
}
