package spec

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
)

// testSpec builds a valid 3-host chain spec (the shape the reconcile
// experiment deploys) that individual tests then mutate.
func testSpec() *Spec {
	return &Spec{
		Version: Version,
		Name:    "chain",
		Hosts: []Host{
			{Name: "host-A", Datapath: 1},
			{Name: "host-B", Datapath: 2},
			{Name: "host-C", Datapath: 3},
		},
		Services: []Service{
			{Name: "firewall", ID: 1, NF: "firewall", Placement: []string{"host-A"}},
			{Name: "ids", ID: 2, NF: "ids", ReadOnly: true, Placement: []string{"host-B"}},
			{Name: "video", ID: 3, NF: "video", ReadOnly: true, Placement: []string{"host-C", "host-A"}, Scale: Bounds{Min: 1, Max: 2}},
		},
		Edges: []Edge{
			{From: "ingress", To: "firewall", Default: true},
			{From: "firewall", To: "ids", Default: true},
			{From: "ids", To: "video", Default: true},
			{From: "video", To: "egress", Default: true},
		},
		Ingress:    IngressSpec{Host: "host-A", Port: 0},
		EgressPort: 1,
		Links: []Link{
			{A: Endpoint{Host: "host-A", Port: 2}, B: Endpoint{Host: "host-B", Port: 2}},
			{A: Endpoint{Host: "host-B", Port: 3}, B: Endpoint{Host: "host-C", Port: 2}},
			{A: Endpoint{Host: "host-B", Port: 4}, B: Endpoint{Host: "host-A", Port: 3}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(Marshal(s)): %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, back)
	}
	// The round-tripped spec diffs empty against the original.
	if c := Diff(s, back); !c.Empty() {
		t.Fatalf("round trip produced a non-empty diff: %s", c)
	}
}

func TestParseRejectsUnknownFieldsAndTrailing(t *testing.T) {
	if _, err := Parse([]byte(`{"version":1,"nam":"typo"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	data, _ := testSpec().Marshal()
	if _, err := Parse(append(data, []byte("{}")...)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

// TestValidateRejections is the rejection table: every mutation must be
// refused with the matching sentinel.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want error
	}{
		{"bad version", func(s *Spec) { s.Version = 2 }, ErrVersion},
		{"no name", func(s *Spec) { s.Name = "" }, ErrInvalid},
		{"no hosts", func(s *Spec) { s.Hosts = nil }, ErrInvalid},
		{"dup host name", func(s *Spec) { s.Hosts[1].Name = "host-A" }, ErrDuplicate},
		{"dup datapath", func(s *Spec) { s.Hosts[1].Datapath = 1 }, ErrDuplicate},
		{"no services", func(s *Spec) { s.Services = nil }, ErrInvalid},
		{"dup service name", func(s *Spec) { s.Services[1].Name = "firewall" }, ErrDuplicate},
		{"dup service id", func(s *Spec) { s.Services[1].ID = 1 }, ErrDuplicate},
		{"reserved service name", func(s *Spec) { s.Services[0].Name = "ingress" }, ErrInvalid},
		{"reserved service id", func(s *Spec) { s.Services[0].ID = 0 }, ErrInvalid},
		{"port-range service id", func(s *Spec) { s.Services[0].ID = 0x8001 }, ErrInvalid},
		{"no NF binding", func(s *Spec) { s.Services[0].NF = "" }, ErrInvalid},
		{"no placement", func(s *Spec) { s.Services[0].Placement = nil }, ErrInvalid},
		{"dangling placement host", func(s *Spec) { s.Services[0].Placement = []string{"host-X"} }, ErrDangling},
		{"placement host twice", func(s *Spec) { s.Services[0].Placement = []string{"host-A", "host-A"} }, ErrDuplicate},
		{"min over max", func(s *Spec) { s.Services[2].Scale = Bounds{Min: 3, Max: 2} }, ErrBounds},
		{"zero min with max", func(s *Spec) { s.Services[2].Scale = Bounds{Min: 0, Max: 2} }, ErrBounds},
		{"dangling ingress host", func(s *Spec) { s.Ingress.Host = "host-X" }, ErrDangling},
		{"negative ingress port", func(s *Spec) { s.Ingress.Port = -1 }, ErrInvalid},
		{"ingress equals egress", func(s *Spec) { s.EgressPort = s.Ingress.Port }, ErrPortClash},
		{"dangling link host", func(s *Spec) { s.Links[0].A.Host = "host-X" }, ErrDangling},
		{"link binds ingress port", func(s *Spec) { s.Links[0].A = Endpoint{Host: "host-A", Port: 0} }, ErrPortClash},
		{"link binds egress port", func(s *Spec) { s.Links[0].B = Endpoint{Host: "host-B", Port: 1} }, ErrPortClash},
		{"two links share a port", func(s *Spec) {
			s.Links[1].A = Endpoint{Host: "host-A", Port: 2} // already link 0's A end
		}, ErrPortClash},
		{"link to itself", func(s *Spec) { s.Links[0].B = s.Links[0].A }, ErrInvalid},
		{"dangling edge ref", func(s *Spec) { s.Edges[1].To = "nat" }, ErrDangling},
		{"edge out of egress", func(s *Spec) {
			s.Edges = append(s.Edges, Edge{From: "egress", To: "video"})
		}, ErrInvalid},
		{"edge into ingress", func(s *Spec) {
			s.Edges = append(s.Edges, Edge{From: "video", To: "ingress"})
		}, ErrInvalid},
		{"self edge", func(s *Spec) { s.Edges[1].To = "firewall" }, ErrInvalid},
		{"dup edge", func(s *Spec) {
			s.Edges = append(s.Edges, Edge{From: "firewall", To: "ids"})
		}, ErrDuplicate},
		{"two defaults from one service", func(s *Spec) {
			s.Edges = append(s.Edges, Edge{From: "ids", To: "firewall", Default: true})
		}, ErrDuplicate},
		{"spec flow idle below opt-out", func(s *Spec) {
			s.FlowTimeouts = &FlowTimeouts{IdleMs: -2}
		}, ErrInvalid},
		{"service flow hard below opt-out", func(s *Spec) {
			s.Services[1].FlowTimeouts = &FlowTimeouts{HardMs: -2}
		}, ErrInvalid},
		{"unreachable service", func(s *Spec) {
			// ids loses its inbound edge: the graph validator refuses.
			s.Edges[1].To = "video"
			s.Edges[2] = Edge{From: "video", To: "egress"}
			s.Edges = s.Edges[:3]
		}, ErrInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutation accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want sentinel %v", err, tc.want)
			}
		})
	}
}

func TestValidateNormalizesZeroBounds(t *testing.T) {
	s := testSpec()
	s.Services[0].Scale = Bounds{}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Services[0].Scale != (Bounds{Min: 1, Max: 1}) {
		t.Fatalf("zero bounds normalized to %+v", s.Services[0].Scale)
	}
}

// TestFlowTimeouts covers the lifecycle stanza end to end: validation,
// the millisecond→duration mapping (including the -1 opt-out), the
// sweeper trigger, JSON round-trip, and diff detection.
func TestFlowTimeouts(t *testing.T) {
	s := testSpec()
	if s.HasFlowLifecycle() {
		t.Fatal("bare spec claims a lifecycle stanza")
	}
	s.FlowTimeouts = &FlowTimeouts{IdleMs: 250, HardMs: 60_000}
	s.Services[1].FlowTimeouts = &FlowTimeouts{IdleMs: -1}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.HasFlowLifecycle() {
		t.Fatal("stanza present but HasFlowLifecycle is false")
	}

	idle, hard := s.FlowTimeouts.Durations()
	if idle != 250*time.Millisecond || hard != time.Minute {
		t.Fatalf("spec durations: idle=%v hard=%v", idle, hard)
	}
	// -1 maps to a negative duration: the table's explicit never-expire
	// opt-out, distinct from 0 (inherit the default).
	if oIdle, oHard := s.Services[1].FlowTimeouts.Durations(); oIdle >= 0 || oHard != 0 {
		t.Fatalf("opt-out durations: idle=%v hard=%v", oIdle, oHard)
	}
	if nilIdle, nilHard := (*FlowTimeouts)(nil).Durations(); nilIdle != 0 || nilHard != 0 {
		t.Fatalf("nil stanza durations: idle=%v hard=%v", nilIdle, nilHard)
	}

	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("flow timeouts did not survive the round trip:\n%+v\n%+v", s, back)
	}
	if c := Diff(s, back); !c.Empty() {
		t.Fatalf("round trip produced a diff: %s", c)
	}

	// Diff flags stanza changes at both levels, and only then.
	plain := testSpec()
	if c := Diff(plain, s); !c.FlowTimeoutsChanged {
		t.Fatalf("adding stanzas not flagged: %s", c)
	}
	tweaked := testSpec()
	tweaked.FlowTimeouts = &FlowTimeouts{IdleMs: 250, HardMs: 60_000}
	tweaked.Services[1].FlowTimeouts = &FlowTimeouts{IdleMs: -1}
	if c := Diff(s, tweaked); c.FlowTimeoutsChanged {
		t.Fatalf("identical stanzas flagged: %s", c)
	}
	tweaked.Services[1].FlowTimeouts = &FlowTimeouts{IdleMs: 500}
	c := Diff(s, tweaked)
	if !c.FlowTimeoutsChanged || c.Empty() {
		t.Fatalf("per-service stanza change not flagged: %s", c)
	}
	found := false
	for _, line := range c.Summary() {
		if line == "~ flow timeouts" {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary missing flow-timeouts line: %v", c.Summary())
	}
}

func TestGraphShape(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var path []flowtable.ServiceID
	for s, ok := g.DefaultNext(graph.Source); ok && s != graph.Sink; s, ok = g.DefaultNext(s) {
		path = append(path, s)
	}
	want := []int{1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("default path %v", path)
	}
	for i, id := range want {
		if int(path[i]) != id {
			t.Fatalf("default path %v, want services %v", path, want)
		}
	}
}

func TestPlace(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	all := func(string) bool { return true }
	got, err := s.Place(all)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"firewall": "host-A", "ids": "host-B", "video": "host-C"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placement %v, want %v", got, want)
	}

	// host-C dies: video falls to its second candidate.
	noC := func(h string) bool { return h != "host-C" }
	got, err = s.Place(noC)
	if err != nil {
		t.Fatal(err)
	}
	if got["video"] != "host-A" {
		t.Fatalf("video placed on %q after C died, want host-A", got["video"])
	}

	// host-B dies: ids has no fallback — the whole placement fails, and
	// the error names the stuck service.
	noB := func(h string) bool { return h != "host-B" }
	if _, err := s.Place(noB); !errors.Is(err, ErrUnplaced) {
		t.Fatalf("placement with dead sole candidate: %v", err)
	}
}

func TestNFRegistry(t *testing.T) {
	reg := NewNFRegistry()
	mk := func() nf.BatchFunction { return nil }
	if err := reg.Register("firewall", mk); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("firewall", mk); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-registration: %v", err)
	}
	if _, err := reg.New("nat"); !errors.Is(err, ErrUnknownNF) {
		t.Fatalf("unknown binding: %v", err)
	}
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.BindCheck(reg); !errors.Is(err, ErrUnknownNF) {
		t.Fatalf("BindCheck with missing bindings: %v", err)
	}
	for _, name := range []string{"ids", "video"} {
		if err := reg.Register(name, mk); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.BindCheck(reg); err != nil {
		t.Fatal(err)
	}
}

func TestDiffDeterminism(t *testing.T) {
	oldS := testSpec()
	if err := oldS.Validate(); err != nil {
		t.Fatal(err)
	}

	mkNew := func() *Spec {
		n := testSpec()
		n.Services = append(n.Services, Service{
			Name: "nat", ID: 4, NF: "nat", Placement: []string{"host-B"},
		})
		n.Services[2].Placement = []string{"host-A", "host-C"}
		n.Services[1].Scale = Bounds{Min: 1, Max: 3}
		n.Services[0].NF = "firewall-v2"
		n.Edges = append(n.Edges, Edge{From: "ids", To: "nat"}, Edge{From: "nat", To: "egress", Default: true})
		n.Links = append(n.Links, Link{A: Endpoint{Host: "host-C", Port: 3}, B: Endpoint{Host: "host-A", Port: 4}})
		return n
	}
	newS := mkNew()
	if err := newS.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Diff(oldS, newS)

	if !reflect.DeepEqual(c.AddedServices, []string{"nat"}) {
		t.Fatalf("added services %v", c.AddedServices)
	}
	if len(c.Placement) != 1 || c.Placement[0].Service != "video" {
		t.Fatalf("placement changes %v", c.Placement)
	}
	if len(c.Bounds) != 1 || c.Bounds[0].Service != "ids" || c.Bounds[0].To.Max != 3 {
		t.Fatalf("bounds changes %v", c.Bounds)
	}
	if len(c.NFs) != 1 || c.NFs[0].Service != "firewall" {
		t.Fatalf("nf changes %v", c.NFs)
	}
	if len(c.AddedEdges) != 2 || len(c.AddedLinks) != 1 {
		t.Fatalf("edges %v links %v", c.AddedEdges, c.AddedLinks)
	}

	// Determinism 1: diffing the same pair again yields the identical set.
	if again := Diff(oldS, newS); !reflect.DeepEqual(c, again) {
		t.Fatalf("repeated diff differs:\n%s\nvs\n%s", c, again)
	}

	// Determinism 2: declaration order must not matter. Reverse every
	// slice in both specs and re-validate; the diff is unchanged.
	shuffle := func(s *Spec) *Spec {
		reverse := func(n int, swap func(i, j int)) {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				swap(i, j)
			}
		}
		reverse(len(s.Hosts), func(i, j int) { s.Hosts[i], s.Hosts[j] = s.Hosts[j], s.Hosts[i] })
		reverse(len(s.Services), func(i, j int) { s.Services[i], s.Services[j] = s.Services[j], s.Services[i] })
		reverse(len(s.Edges), func(i, j int) { s.Edges[i], s.Edges[j] = s.Edges[j], s.Edges[i] })
		reverse(len(s.Links), func(i, j int) { s.Links[i], s.Links[j] = s.Links[j], s.Links[i] })
		// Links may also flip their endpoints — canonicalization absorbs it.
		for i := range s.Links {
			s.Links[i].A, s.Links[i].B = s.Links[i].B, s.Links[i].A
		}
		return s
	}
	oldR := shuffle(testSpec())
	if err := oldR.Validate(); err != nil {
		t.Fatal(err)
	}
	newR := shuffle(mkNew())
	if err := newR.Validate(); err != nil {
		t.Fatal(err)
	}
	if shuffled := Diff(oldR, newR); !reflect.DeepEqual(c, shuffled) {
		t.Fatalf("declaration order changed the diff:\n%s\nvs\n%s", c, shuffled)
	}

	// Empty diff for identical specs (validated so bounds normalize).
	same := testSpec()
	if err := same.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := Diff(oldS, same); !c.Empty() {
		t.Fatalf("identical specs diffed non-empty: %s", c)
	}
	if got := Diff(oldS, same).String(); got != "(no changes)" {
		t.Fatalf("empty diff renders %q", got)
	}
}

func TestDiffHostAndTopologyChanges(t *testing.T) {
	oldS := testSpec()
	newS := testSpec()
	newS.Hosts = append(newS.Hosts, Host{Name: "host-D", Datapath: 4})
	newS.Hosts[2].Datapath = 9 // host-C re-keyed: removed + added
	newS.Ingress.Port = 5
	newS.EgressPort = 6
	c := Diff(oldS, newS)
	if !reflect.DeepEqual(c.AddedHosts, []string{"host-C", "host-D"}) {
		t.Fatalf("added hosts %v", c.AddedHosts)
	}
	if !reflect.DeepEqual(c.RemovedHosts, []string{"host-C"}) {
		t.Fatalf("removed hosts %v", c.RemovedHosts)
	}
	if !c.IngressChanged || !c.EgressChanged {
		t.Fatalf("ingress/egress change not detected: %+v", c)
	}
	if c.Empty() {
		t.Fatal("change set reported empty")
	}
}
