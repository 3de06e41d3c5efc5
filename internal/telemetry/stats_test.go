package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
)

func TestEmitStatsGrammar(t *testing.T) {
	type inner struct {
		N int `metric:"n" help:"n"`
	}
	v := struct {
		A    uint64   `metric:"a_total,k=x" help:"a"`
		B    bool     `metric:"b" help:"b"`
		C    []string `metric:"c" help:"c"`
		F    float64  `metric:"f" help:"f"`
		In   inner    `metric:"in_"`
		Skip uint64
	}{A: 3, B: true, C: []string{"p", "q"}, F: 0.5, In: inner{N: -2}, Skip: 9}
	b := newFamilyBuilder()
	host := []Label{{"host", "h"}}
	emitStats(b, "p_", host, v)
	want := []Family{
		{Name: "p_a_total", Help: "a", Kind: KindCounter, Samples: []Sample{{Labels: []Label{{"host", "h"}, {"k", "x"}}, Value: 3}}},
		{Name: "p_b", Help: "b", Kind: KindGauge, Samples: []Sample{{Labels: host, Value: 1}}},
		{Name: "p_c", Help: "c", Kind: KindGauge, Samples: []Sample{{Labels: host, Value: 2}}},
		{Name: "p_f", Help: "f", Kind: KindGauge, Samples: []Sample{{Labels: host, Value: 0.5}}},
		{Name: "p_in_n", Help: "n", Kind: KindGauge, Samples: []Sample{{Labels: host, Value: -2}}},
	}
	if got := b.families(); !reflect.DeepEqual(got, want) {
		t.Fatalf("emitStats:\n got %+v\nwant %+v", got, want)
	}
	if len(host) != 1 {
		t.Fatalf("the tag label leaked into the caller's labels: %v", host)
	}
}

// TestTaggedStatsWellFormed walks the zero value of every metric-tagged
// stats type: each family name and label key must fit the Prometheus
// grammar, each help must be non-empty, and no struct may emit one
// (family, labels) pair twice.
func TestTaggedStatsWellFormed(t *testing.T) {
	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	for _, v := range []any{
		dataplane.HostStats{}, dataplane.ReplicaStats{}, dataplane.DriverStats{},
		cluster.LinkStats{}, control.Stats{}, autoscale.Stats{}, reconcile.Status{},
	} {
		b := newFamilyBuilder()
		emitStats(b, "sdnfv_", nil, v)
		fams := b.families()
		if len(fams) == 0 {
			t.Errorf("%T exports no metric", v)
		}
		for _, f := range fams {
			if !nameRE.MatchString(f.Name) || f.Help == "" {
				t.Errorf("%T: family %q has a bad name or empty help %q", v, f.Name, f.Help)
			}
			seen := map[string]bool{}
			for _, s := range f.Samples {
				key := fmt.Sprint(s.Labels)
				if seen[key] {
					t.Errorf("%T emits %s%s twice", v, f.Name, key)
				}
				seen[key] = true
				for _, l := range s.Labels {
					if !labelRE.MatchString(l.Key) {
						t.Errorf("%T: %s has bad label key %q", v, f.Name, l.Key)
					}
				}
			}
		}
	}
}

// TestFamilyInventory pins the metric surface of a booted two-host stack
// — every family's name, kind and label keys — against
// testdata/families.txt, so a renamed or dropped family shows up as a
// diff. host1 carries a stub port driver so the port families appear.
func TestFamilyInventory(t *testing.T) {
	sp, err := spec.Load(filepath.Join("..", "..", "examples", "specs", "two-host.json"))
	if err != nil {
		t.Fatal(err)
	}
	nfReg := spec.NewNFRegistry()
	for name, factory := range map[string]func() nf.BatchFunction{
		"firewall": func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} },
		"counter":  func() nf.BatchFunction { return &nfs.Counter{} },
		"shaper": func() nf.BatchFunction {
			return &nfs.Shaper{RateBps: 1e9, BurstBytes: 1e6, Now: func() float64 { return 0 }}
		},
	} {
		if err := nfReg.Register(name, factory); err != nil {
			t.Fatal(err)
		}
	}
	c, err := reconcile.Boot(sp, nfReg, reconcile.Timings{
		Reconcile: reconcile.Config{IntervalSec: 0.02},
		Scale:     autoscale.Config{IntervalSec: 0.05},
		Orch:      orchestrator.Config{BootDelaySec: 0.005, StandbyDelaySec: 0.005, Standby: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Hosts["host1"].RegisterPortStats(0, "stub", func() dataplane.DriverStats { return dataplane.DriverStats{} })

	r := NewRegistry()
	RegisterStack(r, c)
	var lines []string
	seen := map[string]bool{}
	for _, f := range r.Gather() {
		for _, s := range f.Samples {
			keys := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				keys[i] = l.Key
			}
			line := fmt.Sprintf("%s %s {%s}", f.Name, f.Kind, strings.Join(keys, ","))
			if !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "families.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metric family inventory differs from testdata/families.txt; got:\n%s", got)
	}
}

// TestRegisterTwicePanics: each layer registers once per registry; a
// second call is a wiring bug caught by the duplicate show path.
func TestRegisterTwicePanics(t *testing.T) {
	r := NewRegistry()
	rec := reconcile.New(reconcile.Config{}, nopCluster{}, nopCluster{}, fixedClock{})
	RegisterReconcile(r, rec)
	defer func() {
		if recover() == nil {
			t.Fatal("second RegisterReconcile did not panic")
		}
	}()
	RegisterReconcile(r, rec)
}
