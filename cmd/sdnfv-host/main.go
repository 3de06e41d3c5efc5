// Command sdnfv-host boots an SDNFV deployment from a declarative spec
// (internal/spec) and drives traffic through it. There is one boot path:
// -spec FILE loads the spec, and without it the flags synthesise the
// one-host spec examples/specs/single-host.json describes (host1 running
// firewall → counter → shaper, ingress port 0, egress port 1) — the
// flags are shorthand, `sdnfv-ctl diff` between the two is empty.
// Either way reconcile.Boot assembles controller → fabric → hosts →
// links → app → orchestrator → reconciler, NFs boot through the
// orchestrator, each generation's deployment compiles in full and its
// rules install per host through the fabric, and the reconcile loop
// keeps the cluster converged on the spec.
//
// A built-in generator (-packets N) injects at the spec's ingress with
// backpressure, so an unshaped in-process chain delivers every frame.
// -packets 0 is serve mode: no local generator, traffic comes in off
// the wire. SIGINT/SIGTERM stop the generator, drain the data plane,
// and exit 0.
//
// -controller ADDR replaces the in-process controller and application
// with a remote sdnfv-ctl over TCP: flow-table misses are pipelined to
// it by the Flow Controller thread (PACKET_IN → FLOW_MODs, §4.1) and
// cross-layer NF messages are forwarded upstream as NF_MESSAGEs.
//
// Real packet I/O: -port binds a pluggable transport behind a NIC port
// of the ingress host (repeatable), so two processes can exchange
// frames over actual sockets —
//
//	sdnfv-host -port 1=udp:127.0.0.1:7001/127.0.0.1:7002 -packets 10000
//	sdnfv-host -port 0=udp:127.0.0.1:7002 -packets 0
//
// runs a sender whose chain egresses over UDP loopback into a second
// process serving until SIGINT.
//
// Observability: -telemetry ADDR serves the Prometheus exporter at
// /metrics, the show/state API under /state/ (query it with `sdnfv-ctl
// show`), and POST /apply/spec, so `sdnfv-ctl apply` can hand a running
// process a new spec generation; on shutdown the host prints one final
// exporter snapshot from the same registry.
//
//	sdnfv-host -spec examples/specs/two-host.json -telemetry 127.0.0.1:9464 -packets 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/control"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/portio"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
	"sdnfv/internal/telemetry"
	"sdnfv/internal/traffic"
)

type options struct {
	controller         string
	datapath           uint64
	packets, flows     int
	autoscale          bool
	scaleMin, scaleMax int
	flowIdle, flowHard time.Duration
	telemetry          string
	spec               string
	ports              portio.PortFlags
}

// specConflicts are the flags refused alongside -spec: the inputs to
// the spec the flags would otherwise synthesise (the file already says
// all of that), and the two single-host conveniences.
var specConflicts = map[string]string{
	"scale-min":  "autoscale bounds come from the spec's per-service scale stanza",
	"scale-max":  "autoscale bounds come from the spec's per-service scale stanza",
	"autoscale":  "autoscale bounds come from the spec's per-service scale stanza",
	"datapath":   "datapath ids come from the spec's host stanzas",
	"flow-idle":  "flow timeouts come from the spec's flow_timeouts stanza",
	"flow-hard":  "flow timeouts come from the spec's flow_timeouts stanza",
	"controller": "a spec file boots its own in-process controller",
	"port":       "a spec file wires ports from its links",
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("sdnfv-host", flag.ContinueOnError)
	fs.StringVar(&o.controller, "controller", "", "remote controller address (empty = in-process controller and application)")
	fs.Uint64Var(&o.datapath, "datapath", 0, "datapath id announced to the controller (0 = anonymous); rules resolve scoped to this host")
	fs.IntVar(&o.packets, "packets", 10000, "packets to generate (0 = serve until SIGINT)")
	fs.IntVar(&o.flows, "flows", 8, "concurrent synthetic flows")
	fs.BoolVar(&o.autoscale, "autoscale", true, "autoscale the counter service from its queue telemetry")
	fs.IntVar(&o.scaleMin, "scale-min", 1, "autoscale: minimum replicas")
	fs.IntVar(&o.scaleMax, "scale-max", 3, "autoscale: maximum replicas")
	fs.DurationVar(&o.flowIdle, "flow-idle", 0, "evict flow rules idle for this long (0 = never); starts the table sweeper")
	fs.DurationVar(&o.flowHard, "flow-hard", 0, "evict flow rules this long after install regardless of traffic (0 = never)")
	fs.StringVar(&o.telemetry, "telemetry", "", "serve /metrics, /state/... and /apply/spec on this address (e.g. 127.0.0.1:9464; empty = off)")
	fs.StringVar(&o.spec, "spec", "", "declarative deployment spec (JSON); without it the flags synthesise a one-host spec")
	fs.Var(&o.ports, "port", "bind a port driver on the ingress host, N=udp:LADDR[/RADDR] | N=tcp:ADDR | N=tcp-listen:ADDR | N=afpacket:IFACE (repeatable)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.spec != "" {
		fs.Visit(func(f *flag.Flag) {
			if why, ok := specConflicts[f.Name]; ok && err == nil {
				err = fmt.Errorf("-%s conflicts with -spec: %s", f.Name, why)
			}
		})
	}
	return o, err
}

// specFromFlags synthesises the one-host spec the flags are shorthand
// for. With -datapath 1 and otherwise default flags it equals
// examples/specs/single-host.json.
func specFromFlags(o options) (*spec.Spec, error) {
	scale := spec.Bounds{Min: 1, Max: 1}
	if o.autoscale {
		scale = spec.Bounds{Min: o.scaleMin, Max: o.scaleMax}
	}
	on := []string{"host1"}
	sp := &spec.Spec{
		Version: spec.Version,
		Name:    "single-host-chain",
		Hosts:   []spec.Host{{Name: "host1", Datapath: o.datapath}},
		Services: []spec.Service{
			{Name: "firewall", ID: 1, NF: "firewall", Placement: on},
			{Name: "counter", ID: 2, NF: "counter", Placement: on, Scale: scale},
			{Name: "shaper", ID: 3, NF: "shaper", ReadOnly: true, Placement: on},
		},
		Edges: []spec.Edge{
			{From: spec.EndpointIngress, To: "firewall", Default: true},
			{From: "firewall", To: "counter", Default: true},
			{From: "counter", To: "shaper", Default: true},
			{From: "shaper", To: spec.EndpointEgress, Default: true},
		},
		Ingress:    spec.IngressSpec{Host: "host1", Port: 0},
		EgressPort: 1,
	}
	if o.flowIdle != 0 || o.flowHard != 0 {
		for _, d := range []time.Duration{o.flowIdle, o.flowHard} {
			if d%time.Millisecond != 0 {
				return nil, fmt.Errorf("flow timeout %v: spec flow_timeouts have millisecond resolution", d)
			}
		}
		sp.FlowTimeouts = &spec.FlowTimeouts{
			IdleMs: int(o.flowIdle / time.Millisecond),
			HardMs: int(o.flowHard / time.Millisecond),
		}
	}
	return sp, sp.Validate()
}

// builtinNFs is the registry of NF implementations this binary ships;
// spec `nf` bindings resolve against these names.
func builtinNFs() (*spec.NFRegistry, error) {
	start := time.Now()
	reg := spec.NewNFRegistry()
	for name, factory := range map[string]func() nf.BatchFunction{
		"firewall": func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} },
		"counter":  func() nf.BatchFunction { return &nfs.Counter{} },
		"shaper": func() nf.BatchFunction {
			return &nfs.Shaper{
				RateBps: 1e9, BurstBytes: 1e6,
				Now: func() float64 { return time.Since(start).Seconds() },
			}
		},
	} {
		if err := reg.Register(name, factory); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		err = run(opts, os.Stdout)
	}
	if err != nil {
		log.Fatalf("sdnfv-host: %v", err)
	}
}

// run is the whole program after flag parsing: obtain a spec, Boot it,
// bind port drivers and telemetry, generate (or serve), drain, close,
// and write the summary to stdout.
func run(o options, stdout io.Writer) error {
	mode := "flag mode"
	var sp *spec.Spec
	var err error
	if o.spec != "" {
		mode = "spec mode"
		sp, err = spec.Load(o.spec)
	} else {
		sp, err = specFromFlags(o)
	}
	if err != nil {
		return err
	}
	nfReg, err := builtinNFs()
	if err != nil {
		return err
	}
	ingressDP, _ := sp.Datapath(sp.Ingress.Host) // validated: the ingress host exists

	var remote func(control.DatapathID) control.Southbound
	if o.controller != "" {
		dialCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		client, err := control.DialAs(dialCtx, o.controller, ingressDP)
		cancel()
		if err != nil {
			return fmt.Errorf("dial controller: %w", err)
		}
		// Closed after the cluster: the Flow Controller thread resolves
		// misses over this channel until the host stops.
		defer client.Close()
		// The HELLO announced our datapath id, so the controller
		// registers this host's session and scopes every FLOW_MOD to it.
		remote = func(control.DatapathID) control.Southbound { return client }
		log.Printf("sdnfv-host: control channel to %s up as datapath %s", o.controller, ingressDP)
	}

	c, err := reconcile.Boot(sp, nfReg, reconcile.Timings{
		Reconcile: reconcile.Config{IntervalSec: 0.05},
		Scale:     autoscale.Config{IntervalSec: 0.05, CooldownSec: 0.25},
		Orch:      orchestrator.Config{BootDelaySec: 0.05, StandbyDelaySec: 0.05, Standby: 1},
	}, remote)
	if err != nil {
		return err
	}
	defer c.Close()
	st := c.Reconciler.Status()
	log.Printf("sdnfv-host: spec %q generation %d converged after %d ticks (%d hosts, %d services), placement %v",
		sp.Name, st.Generation, st.Ticks, len(sp.Hosts), len(sp.Services), st.Placement)

	// Port drivers go through the fabric, so Close drains the engine
	// through the sinks before each driver flushes onto the wire.
	for _, ps := range o.ports.Ports {
		if _, err := c.Fabric.BindWire(ingressDP, ps.Port, ps.Driver); err != nil {
			return fmt.Errorf("bind %s: %w", ps.Spec, err)
		}
		log.Printf("sdnfv-host: port %d bound to %s (%s)", ps.Port, ps.Driver.Name(), ps.Spec)
	}

	// Observability plane: the same registry backs the live exporter
	// (-telemetry) and the final shutdown snapshot, so what an operator
	// scrapes mid-run and what the host prints on exit come from one
	// code path.
	reg := telemetry.NewRegistry()
	telemetry.RegisterStack(reg, c)
	if o.telemetry != "" {
		srv, err := telemetry.Serve(o.telemetry, reg)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		log.Printf("sdnfv-host: telemetry on http://%s/metrics (state index at /state, apply specs at /apply/spec)", srv.Addr())
	}

	// Graceful shutdown: a signal stops the generator loop (or serve
	// mode) and falls through to the drain + summary below.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	if o.packets == 0 {
		log.Printf("sdnfv-host: serving (%d port driver(s) bound), ^C to stop", len(o.ports.Ports))
		log.Printf("sdnfv-host: %s received, draining", <-sigs)
	} else {
		factory := traffic.NewFactory()
	gen:
		for i := 0; i < o.packets; i++ {
			select {
			case s := <-sigs:
				log.Printf("sdnfv-host: %s received, stopping generator", s)
				break gen
			default:
			}
			frame, err := factory.Frame(traffic.Flow(i%o.flows, 512, 0), time.Now().UnixNano())
			if err != nil {
				return err
			}
			if err := c.Inject(frame); err != nil {
				return err
			}
		}
	}
	if !c.Fabric.WaitIdle(10 * time.Second) {
		log.Printf("sdnfv-host: drain timed out — packets still in flight")
	}

	// Close before the final stats read so the wire counters reconcile:
	// engine drained through the sinks, every driver flushed and closed.
	c.Close()

	final := c.Reconciler.Status()
	var delivered uint64
	for _, name := range sp.HostNames() {
		hs := c.Hosts[name].Stats()
		delivered += c.Delivered(name)
		fmt.Fprintf(stdout, "sdnfv-host: %s rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d misses=%d rules=%d\n",
			name, hs.RxPackets, hs.TxPackets, hs.Drops, hs.Overflows, hs.TxDrops, hs.RxDrops, hs.Misses, hs.Table.Rules)
	}
	for svc, sc := range c.Actuators.Scalers() {
		for _, ev := range sc.Events() {
			fmt.Fprintf(stdout, "sdnfv-host: autoscale %s %s at t=%.2fs (replicas=%d backlog=%d err=%v)\n",
				svc, ev.Decision, ev.At, ev.Replicas, ev.Backlog, ev.Err)
		}
	}
	fmt.Fprintf(stdout, "sdnfv-host: drift=%d actions ok=%d failed=%d\n", len(final.Drift), final.ActionsOK, final.ActionsFailed)
	fmt.Fprintf(stdout, "%s: generation=%d converged=%v delivered=%d\n", mode, final.Generation, final.Converged, delivered)
	// Final snapshot through the exporter itself: the same families a
	// live scrape would see, per-port and per-replica counters included.
	if err := reg.WritePrometheus(stdout); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	for _, name := range sp.HostNames() {
		fmt.Fprintf(stdout, "%s flow table:\n%s\n", name, c.Hosts[name].Table().Dump())
	}
	return nil
}
