package reconcile

import (
	"context"
	"slices"
	"testing"

	"sdnfv/internal/app"
	"sdnfv/internal/cluster"
	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/packet"
)

// TestClusterActuatorsReroute drives Reroute on a three-host fabric
// through a fresh placement, a service move and a host death. After
// each step every live host's table holds exactly the rules a fresh
// compile of the current assignment gives it (none for a host left
// with no service), a dead host is skipped and forgotten, and every
// table's accounting identity holds.
func TestClusterActuatorsReroute(t *testing.T) {
	sp := chainSpec()
	dps := DatapathsOf(sp)
	fab := cluster.New()
	for _, h := range sp.Hosts {
		host := dataplane.NewHost(dataplane.Config{PoolSize: 64, RingSize: 16, TXThreads: 1})
		if err := fab.AddHost(control.DatapathID(h.Datapath), h.Name, host); err != nil {
			t.Fatal(err)
		}
	}
	act := &ClusterActuators{Fabric: fab, App: app.New(app.Config{WildcardRules: true}), Datapaths: dps}

	check := func(step string, assign map[string]string, dead ...string) {
		t.Helper()
		if err := act.Reroute(context.Background(), sp, assign); err != nil {
			t.Fatalf("%s: reroute: %v", step, err)
		}
		d, err := BuildDeployment(sp, assign)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range sp.Hosts {
			dp := dps[h.Name]
			host, _ := fab.Host(dp)
			tab := host.Table()
			if st := tab.Stats(); st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
				t.Fatalf("%s: %s: adds %d != rules %d + deleted %d + evicted %d",
					step, h.Name, st.Adds, st.Rules, st.Deleted, st.Evicted())
			}
			if slices.Contains(dead, h.Name) {
				if _, ok := act.installed[dp]; ok {
					t.Fatalf("%s: dead host %s still tracked in installed", step, h.Name)
				}
				continue
			}
			rules := want[dp]
			if got := tab.Len(); got != len(rules) {
				t.Fatalf("%s: %s holds %d rules, fresh compile gives %d:\n%s", step, h.Name, got, len(rules), tab.Dump())
			}
			if len(act.installed[dp]) != len(rules) {
				t.Fatalf("%s: %s tracks %d installed ids, want %d", step, h.Name, len(act.installed[dp]), len(rules))
			}
			for _, r := range rules {
				e, err := tab.Lookup(r.Scope, packet.FlowKey{})
				if err != nil {
					t.Fatalf("%s: %s has no rule at %s: %v", step, h.Name, r.Scope, err)
				}
				if !e.Match.Equal(r.Match) || !slices.Equal(e.Actions, r.Actions) {
					t.Fatalf("%s: %s rule at %s = %v %v, fresh compile %v %v",
						step, h.Name, r.Scope, e.Match, e.Actions, r.Match, r.Actions)
				}
			}
		}
	}

	check("place", map[string]string{"fw": "A", "ids": "B", "video": "C"})
	// C loses its only service and must be emptied.
	check("move", map[string]string{"fw": "A", "ids": "B", "video": "B"})
	if n := len(act.installed[dps["C"]]); n != 0 {
		t.Fatalf("emptied host C tracks %d installed ids", n)
	}
	if err := fab.KillHost(dps["B"]); err != nil {
		t.Fatal(err)
	}
	check("kill", map[string]string{"fw": "A", "ids": "A", "video": "A"}, "B")
}
