// Package telemetry is the observability plane of the SDNFV stack: a
// stdlib-only metric registry whose collectors read snapshots of the
// counters every layer already maintains (HostStats, ReplicaStats, port
// DriverStats, cluster link stats, controller session counters,
// autoscale decisions, reconcile status), a Prometheus text-format
// exporter served over HTTP at /metrics, and an osvbng-style show/state
// API of path-addressed JSON snapshot handlers under /state/.
//
// Each counter is declared once, on the stats field it reads: a
// `metric:"name[,label=value]" help:"text"` struct tag (see emitStats).
// /metrics is derived from those tags and /state serves the same
// structs, so the two cannot drift; adding a counter is one tagged
// field.
//
// The paper's SDNFV manager is only as smart as what it can observe
// (§3.3 automatic load balancing, §5 dynamic scaling): autoscaling,
// rerouting, and flow-aware policy all hinge on per-host, per-replica,
// and per-port statistics. This package makes those statistics
// scrapeable and queryable by path WITHOUT adding any work to the
// packet path: every collector runs at scrape time on the caller's
// goroutine and reads atomically-published snapshots the data plane
// updates anyway. Nothing here is //sdnfv:hotpath-annotated, and
// nothing here may be called from annotated code — sdnfv-lint's
// hotpath analyzer enforces the boundary.
package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind uint8

// Metric kinds, matching the Prometheus exposition-format TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition-format TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one metric dimension. Labels are ordered: collectors emit
// them in schema order (host, datapath, service, replica, port, driver,
// link, session, ...) and the exporter preserves that order.
type Label struct {
	Key   string
	Value string
}

// Bucket is one cumulative histogram bucket: the count of observations
// at or below UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// Sample is one labeled observation inside a family. Counter and gauge
// samples carry Value; histogram samples carry Buckets (cumulative,
// ascending bounds; the +Inf bucket is implicit in Count), Sum, and
// Count.
type Sample struct {
	Labels  []Label
	Value   float64
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Family is one metric family: a name, help text, a kind, and its
// samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Collector produces a snapshot of metric families at scrape time.
// Collectors must be safe for concurrent use and must not block on the
// packet path; they read already-published counter snapshots.
type Collector interface {
	Collect() []Family
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []Family

// Collect implements Collector.
func (f CollectorFunc) Collect() []Family { return f() }

// Registry holds the registered collectors and show handlers of one
// process. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector

	showMu  sync.Mutex
	show    map[string]ShowFunc
	actions map[string]ActionFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		show:    make(map[string]ShowFunc),
		actions: make(map[string]ActionFunc),
	}
}

// MustRegister adds collectors to the registry; their families are
// merged into every subsequent Gather.
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		if c == nil {
			panic("telemetry: nil collector")
		}
		r.collectors = append(r.collectors, c)
	}
}

// Gather runs every collector and merges their families by name: the
// first collector to emit a family fixes its help and kind, later
// collectors append samples. Families are returned sorted by name, so
// two Gathers over unchanged counters render identically.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	byName := make(map[string]*Family)
	var order []string
	for _, c := range collectors {
		for _, f := range c.Collect() {
			have, ok := byName[f.Name]
			if !ok {
				cp := f
				cp.Samples = append([]Sample(nil), f.Samples...)
				byName[f.Name] = &cp
				order = append(order, f.Name)
				continue
			}
			if have.Kind != f.Kind {
				panic(fmt.Sprintf("telemetry: family %s registered as both %s and %s",
					f.Name, have.Kind, f.Kind))
			}
			have.Samples = append(have.Samples, f.Samples...)
		}
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// familyBuilder accumulates samples into named families in first-emit
// order; collectors use it to build their snapshot.
type familyBuilder struct {
	byName map[string]*Family
	order  []string
}

func newFamilyBuilder() *familyBuilder {
	return &familyBuilder{byName: make(map[string]*Family)}
}

func (b *familyBuilder) add(name, help string, kind Kind, s Sample) {
	f, ok := b.byName[name]
	if !ok {
		f = &Family{Name: name, Help: help, Kind: kind}
		b.byName[name] = f
		b.order = append(b.order, name)
	}
	f.Samples = append(f.Samples, s)
}

func (b *familyBuilder) families() []Family {
	out := make([]Family, 0, len(b.order))
	for _, name := range b.order {
		out = append(out, *b.byName[name])
	}
	return out
}

// emitStats adds one sample to b for every metric-tagged field of the
// stats struct v. A field tagged `metric:"name[,label=value]"
// help:"text"` becomes family prefix+name with the caller's labels plus
// the tag's own; the name's _total suffix makes it a counter, anything
// else a gauge. Numbers export as-is, bools as 0/1, slices as their
// length. A tagged struct field is walked with its tag appended to the
// prefix; untagged fields are not exported.
func emitStats(b *familyBuilder, prefix string, labels []Label, v any) {
	emitFields(b, prefix, labels, reflect.ValueOf(v))
}

func emitFields(b *familyBuilder, prefix string, labels []Label, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			emitFields(b, prefix+tag, labels, v.Field(i))
			continue
		}
		name, label, _ := strings.Cut(tag, ",")
		ls := labels
		if key, val, ok := strings.Cut(label, "="); ok {
			ls = append(ls[:len(ls):len(ls)], Label{key, val})
		}
		kind := KindGauge
		if strings.HasSuffix(name, "_total") {
			kind = KindCounter
		}
		b.add(prefix+name, f.Tag.Get("help"), kind, Sample{Labels: ls, Value: metricValue(v.Field(i))})
	}
}

func metricValue(v reflect.Value) float64 {
	switch {
	case v.CanUint():
		return float64(v.Uint())
	case v.CanInt():
		return float64(v.Int())
	case v.CanFloat():
		return v.Float()
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.Kind() == reflect.Slice:
		return float64(v.Len())
	}
	panic(fmt.Sprintf("telemetry: metric-tagged field of kind %s", v.Kind()))
}
