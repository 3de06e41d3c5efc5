package reconcile

import (
	"path/filepath"
	"testing"
	"time"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/control"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/spec"
	"sdnfv/internal/traffic"
)

func exampleNFs(t *testing.T) *spec.NFRegistry {
	t.Helper()
	start := time.Now()
	reg := spec.NewNFRegistry()
	for name, factory := range map[string]func() nf.BatchFunction{
		"firewall": func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} },
		"counter":  func() nf.BatchFunction { return &nfs.Counter{} },
		"shaper": func() nf.BatchFunction {
			return &nfs.Shaper{RateBps: 1e9, BurstBytes: 1e6, Now: func() float64 { return time.Since(start).Seconds() }}
		},
	} {
		if err := reg.Register(name, factory); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

var testTimings = Timings{
	Reconcile: Config{IntervalSec: 0.02},
	Scale:     autoscale.Config{IntervalSec: 0.05, CooldownSec: 0.25},
	Orch:      orchestrator.Config{BootDelaySec: 0.005, StandbyDelaySec: 0.005, Standby: 1},
}

// injectFrames pushes n frames through the windowed inject and waits
// for the cluster to drain.
func injectFrames(t *testing.T, c *Cluster, n int) {
	t.Helper()
	factory := traffic.NewFactory()
	for i := 0; i < n; i++ {
		frame, err := factory.Frame(traffic.Flow(i%8, 256, 0), time.Now().UnixNano())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Inject(frame); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
	}
	if !c.Fabric.WaitIdle(10 * time.Second) {
		t.Fatalf("cluster never drained: %d frames in flight", c.Fabric.InFlight())
	}
}

func TestBootExampleSpecs(t *testing.T) {
	const frames = 500
	for _, file := range []string{"single-host.json", "two-host.json"} {
		t.Run(file, func(t *testing.T) {
			sp, err := spec.Load(filepath.Join("..", "..", "examples", "specs", file))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Boot(sp, exampleNFs(t), testTimings, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if st := c.Reconciler.Status(); !st.Converged || st.Generation != 1 {
				t.Fatalf("Boot returned unconverged: %+v", st)
			}
			if c.Controller == nil {
				t.Fatal("no in-process controller without a remote southbound")
			}

			injectFrames(t, c, frames)
			c.Close()

			var delivered uint64
			for _, name := range sp.HostNames() {
				delivered += c.Delivered(name)
				st := c.Hosts[name].Stats()
				if !st.Conserved() {
					t.Errorf("%s: accounting identity broken: %+v", name, st)
				}
				if st.Overflows != 0 {
					t.Errorf("%s: %d overflows under the inject window", name, st.Overflows)
				}
				if st.Pool.InUse != 0 {
					t.Errorf("%s: %d pool buffers leaked past Close", name, st.Pool.InUse)
				}
			}
			if delivered != frames {
				t.Fatalf("delivered %d of %d", delivered, frames)
			}
			if st := c.Reconciler.Status(); !st.Converged || len(st.Drift) != 0 {
				t.Fatalf("not converged after traffic: %+v", st)
			}
		})
	}
}

// TestBootRemoteSouthbound boots with a supplied southbound: no
// in-process controller or app is built, reroute is a no-op, and the
// host resolves every miss through the remote endpoint.
func TestBootRemoteSouthbound(t *testing.T) {
	sp, err := spec.Load(filepath.Join("..", "..", "examples", "specs", "single-host.json"))
	if err != nil {
		t.Fatal(err)
	}
	var asked []control.DatapathID
	drop := control.SouthboundFuncs{}
	c, err := Boot(sp, exampleNFs(t), testTimings, func(dp control.DatapathID) control.Southbound {
		asked = append(asked, dp)
		return drop
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Controller != nil {
		t.Fatal("in-process controller built despite a remote southbound")
	}
	if len(asked) != 1 || asked[0] != 1 {
		t.Fatalf("southbound requested for %v, want [1]", asked)
	}
	if rules := c.Hosts["host1"].Stats().Table.Rules; rules != 0 {
		t.Fatalf("%d rules installed locally; a remote controller owns routing", rules)
	}
	// The no-compiler southbound answers every miss with an error, so the
	// frames are dropped by policy — but through the miss path, counted.
	injectFrames(t, c, 50)
	st := c.Hosts["host1"].Stats()
	if st.Misses == 0 || st.RxPackets != 50 || st.TxPackets != 0 {
		t.Fatalf("misses did not go to the remote southbound: %+v", st)
	}
}

func TestBootRejectsUnboundNF(t *testing.T) {
	sp, err := spec.Load(filepath.Join("..", "..", "examples", "specs", "single-host.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(sp, spec.NewNFRegistry(), testTimings, nil); err == nil {
		t.Fatal("Boot accepted a spec whose NF bindings do not resolve")
	}
}
