package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/portio"
)

// The traced run wraps the seams that are already interfaces with the
// timing decorators below. They live here, in the harness, so the
// program under test is the same code in traced and untraced runs; spans
// inside the program are a later change.

// Counts and busy time are kept for every call; a span is recorded for
// one call in sampleEvery on the packet path, and one in controlEvery on
// the control path, where a call is a whole batch of misses and a
// thousandth of them would be a handful per run.
const (
	sampleEvery  = 1024
	controlEvery = 16
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is 0 for a root span. SelfNs is the
// duration minus the part child spans cover, filled in when written.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Flow   uint64 `json:"flow"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
}

// layerTimer is one decorator's full accounting: calls made, items
// (packets, requests) carried, and time spent inside the wrapped call.
type layerTimer struct {
	every uint64 // one call in every is sampled
	calls atomic.Uint64
	items atomic.Uint64
	busy  atomic.Int64
}

// perItem is busy nanoseconds per item; 0 when the layer saw nothing.
func (t *layerTimer) perItem() float64 {
	if n := t.items.Load(); n > 0 {
		return float64(t.busy.Load()) / float64(n)
	}
	return 0
}

// perCall is items per call; 0 when the layer saw nothing.
func (t *layerTimer) perCall() float64 {
	if n := t.calls.Load(); n > 0 {
		return float64(t.items.Load()) / float64(n)
	}
	return 0
}

type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// sampledFlows maps the flow ids of a sampled control.resolve batch
	// to that span's id, so the app-side decorator — reached over TCP,
	// with no context to carry a parent — can attach its span to it.
	sampledFlows sync.Map

	firewall, ids   layerTimer
	ingest, egress  layerTimer
	resolve, compil layerTimer
	ingestRefused   atomic.Uint64 // frames IngestBurst handed back unconsumed
}

func newTracer() *tracer {
	tr := &tracer{base: time.Now(), spans: make([]span, 0, 1<<14)}
	for _, t := range []*layerTimer{&tr.firewall, &tr.ids, &tr.ingest, &tr.egress} {
		t.every = sampleEvery
	}
	tr.resolve.every, tr.compil.every = controlEvery, controlEvery
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// add books one call on t and reports whether its span is recorded.
func (t *layerTimer) add(items int, busy int64) (sampled bool) {
	t.items.Add(uint64(items))
	t.busy.Add(busy)
	return t.calls.Add(1)%t.every == 1
}

// record keeps s, giving it an id unless the caller reserved one.
func (tr *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = tr.nextID.Add(1)
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// write stores the spans, self times filled in, as JSON at path.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].SelfNs = spans[i].End - spans[i].Start - covered(children[spans[i].ID], spans[i].Start, spans[i].End)
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// covered is the length of [start, end] that the union of kids covers:
// children running on several workers overlap and must not count twice.
func covered(kids []span, start, end int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := start
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, end)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// tracedNF times ProcessBatch and forwards the lifecycle hooks.
type tracedNF struct {
	nf.BatchFunction
	tr    *tracer
	timer *layerTimer
	name  string
}

func (t *tracedNF) Init(ctx *nf.Context) error { return nf.InitNF(t.BatchFunction, ctx) }
func (t *tracedNF) Close() error               { return nf.CloseNF(t.BatchFunction) }

func (t *tracedNF) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	var flow uint64
	if len(batch) > 0 {
		flow = batch[0].Key.Hash()
	}
	start := t.tr.now()
	t.BatchFunction.ProcessBatch(ctx, batch, out)
	end := t.tr.now()
	if t.timer.add(len(batch), end-start) {
		t.tr.record(span{Name: t.name, Flow: flow, Start: start, End: end})
	}
}

// tracedSouthbound times the Flow Controller's resolution batches on the
// client side of the control channel.
type tracedSouthbound struct {
	control.Southbound
	tr *tracer
}

func (t *tracedSouthbound) ResolveBatch(ctx context.Context, reqs []control.ResolveRequest, out []control.ResolveResult) {
	// Whether this batch is the sampled one must be known before the
	// call, so the children it causes can find their parent.
	sampled := (t.tr.resolve.calls.Load()+1)%t.tr.resolve.every == 1
	var id uint64
	if sampled {
		id = t.tr.nextID.Add(1)
		for _, r := range reqs {
			t.tr.sampledFlows.Store(r.Key.Hash(), id)
		}
	}
	start := t.tr.now()
	t.Southbound.ResolveBatch(ctx, reqs, out)
	end := t.tr.now()
	t.tr.resolve.add(len(reqs), end-start)
	if sampled {
		for _, r := range reqs {
			t.tr.sampledFlows.Delete(r.Key.Hash())
		}
		t.tr.record(span{Name: "control.resolve", ID: id, Flow: reqs[0].Key.Hash(), Start: start, End: end})
	}
}

// tracedNorthbound times rule compilation on the application side.
type tracedNorthbound struct {
	control.Northbound
	tr *tracer
}

func (t *tracedNorthbound) CompileFlow(ctx context.Context, dp control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
	start := t.tr.now()
	rules, err := t.Northbound.CompileFlow(ctx, dp, scope, key)
	end := t.tr.now()
	flow := key.Hash()
	var parent uint64
	if p, ok := t.tr.sampledFlows.Load(flow); ok {
		parent = p.(uint64)
	}
	if t.tr.compil.add(1, end-start) || parent != 0 {
		t.tr.record(span{Name: "app.compile", Parent: parent, Flow: flow, Start: start, End: end})
	}
	return rules, err
}

// tracedIngress times the host's IngestBurst as the driver's RX pump
// sees it; frames per call is the batching the wire achieved.
type tracedIngress struct {
	portio.Ingress
	tr *tracer
}

func (t *tracedIngress) IngestBurst(frames [][]byte) (int, int) {
	start := t.tr.now()
	admitted, consumed := t.Ingress.IngestBurst(frames)
	end := t.tr.now()
	t.tr.ingestRefused.Add(uint64(len(frames) - consumed))
	if t.tr.ingest.add(consumed, end-start) {
		t.tr.record(span{Name: "dataplane.ingest", Start: start, End: end})
	}
	return admitted, consumed
}

// tracedSink times a driver's egress hand-off, one call per frame.
func tracedSink(tr *tracer, sink dataplane.PortSink) dataplane.PortSink {
	return func(port int, data []byte, d *dataplane.Desc) {
		start := tr.now()
		sink(port, data, d)
		end := tr.now()
		if tr.egress.add(1, end-start) {
			tr.record(span{Name: "portio.egress", Flow: d.Key.Hash(), Start: start, End: end})
		}
	}
}
