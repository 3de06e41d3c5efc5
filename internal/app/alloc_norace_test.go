//go:build !race

package app

// Allocation budget of the per-flow compile. Excluded under the race
// detector, whose instrumentation changes allocation behavior.

import (
	"context"
	"testing"

	"sdnfv/internal/flowtable"
)

// TestCompileFlowAllocs: once a graph's template is compiled, each flow
// costs one allocation, its own copy of the rules, in both modes, on a
// single host and in a deployment.
func TestCompileFlowAllocs(t *testing.T) {
	single := New(Config{IngressPort: 0, EgressPort: 1})
	if err := single.RegisterGraph(testGraph(t, "g")); err != nil {
		t.Fatal(err)
	}
	wild := New(Config{IngressPort: 0, EgressPort: 1, WildcardRules: true})
	if err := wild.RegisterGraph(testGraph(t, "g")); err != nil {
		t.Fatal(err)
	}
	deployed := New(Config{})
	if _, err := deployed.SetDeployment(testDeployment(t)); err != nil {
		t.Fatal(err)
	}
	ctx, key := context.Background(), testKey()
	for name, a := range map[string]*App{"exact": single, "wildcard": wild, "deployment": deployed} {
		var rules []flowtable.Rule
		var err error
		compile := func() { rules, err = a.CompileFlow(ctx, dpA, flowtable.Port(0), key) }
		compile()
		if allocs := testing.AllocsPerRun(100, compile); allocs > 1 {
			t.Errorf("%s: %v allocs per CompileFlow, budget 1", name, allocs)
		}
		if err != nil || len(rules) == 0 {
			t.Errorf("%s: %v, %v", name, rules, err)
		}
	}
}
