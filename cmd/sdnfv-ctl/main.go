// Command sdnfv-ctl runs the SDN controller + SDNFV Application pair: it
// listens for NF Manager control channels (the openflow package's wire
// protocol over TCP), compiles a service graph into flow rules on demand
// (pipelined PACKET_IN → FLOW_MODs), answers FEATURES/STATS requests,
// and validates cross-layer NF messages through the typed control API.
//
// SIGINT/SIGTERM shut it down gracefully: the listener closes, in-flight
// requests drain via Controller.Stop, and the process exits 0.
//
// Pair it with cmd/sdnfv-host:
//
//	sdnfv-ctl  -listen 127.0.0.1:6653 &
//	sdnfv-host -controller 127.0.0.1:6653
//
// The show subcommand queries a running host's telemetry endpoint
// (sdnfv-host -telemetry ADDR) by state path — or fetches and
// conformance-checks the raw exporter output:
//
//	sdnfv-ctl show -host 127.0.0.1:9464                  # list state paths
//	sdnfv-ctl show -host 127.0.0.1:9464 dataplane/hosts  # one JSON snapshot
//	sdnfv-ctl show -host 127.0.0.1:9464 metrics          # validated /metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/spec"
	"sdnfv/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "show":
			if err := runShow(os.Args[2:]); err != nil {
				log.Fatalf("sdnfv-ctl show: %v", err)
			}
			return
		case "diff":
			if err := runDiff(os.Args[2:]); err != nil {
				log.Fatalf("sdnfv-ctl diff: %v", err)
			}
			return
		case "apply":
			if err := runApply(os.Args[2:]); err != nil {
				log.Fatalf("sdnfv-ctl apply: %v", err)
			}
			return
		}
	}
	runController()
}

// runDiff loads and validates two spec files offline and prints the
// typed change set between them — what a reconciler holding OLD would
// do when handed NEW.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: sdnfv-ctl diff OLD.json NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return errors.New("expected exactly two spec files")
	}
	old, err := spec.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	next, err := spec.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	cs := spec.Diff(old, next)
	if cs.Empty() {
		fmt.Println("no changes")
		return nil
	}
	for _, line := range cs.Summary() {
		fmt.Println(line)
	}
	return nil
}

// runApply validates a spec file locally, POSTs it to a running host's
// /apply/spec action, and prints the applied generation and change set.
func runApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	host := fs.String("host", "127.0.0.1:9464", "telemetry address of a running sdnfv-host")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: sdnfv-ctl apply [-host ADDR] SPEC.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errors.New("expected exactly one spec file")
	}
	// Validate locally first: a bad spec fails here with the full
	// validation error instead of a remote 422.
	sp, err := spec.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	data, err := sp.Marshal()
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Post("http://"+*host+"/apply/spec", "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/apply/spec: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, bytes.TrimSpace(body), "", "  "); err != nil {
		return fmt.Errorf("/apply/spec returned non-JSON: %w", err)
	}
	fmt.Println(pretty.String())
	return nil
}

// runShow queries a running host's telemetry server: no argument lists
// the registered state paths, "metrics" fetches /metrics and runs the
// conformance parser over it, anything else is resolved as a /state
// path ("ports" and "/state/ports" are equivalent).
func runShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	host := fs.String("host", "127.0.0.1:9464", "telemetry address of a running sdnfv-host")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: *timeout}
	get := func(path string) ([]byte, error) {
		resp, err := client.Get("http://" + *host + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
		}
		return body, nil
	}

	path := fs.Arg(0)
	if path == "metrics" || path == "/metrics" {
		body, err := get("/metrics")
		if err != nil {
			return err
		}
		if _, err := telemetry.ParseText(bytes.NewReader(body)); err != nil {
			return fmt.Errorf("exposition output failed conformance: %w", err)
		}
		_, err = os.Stdout.Write(body)
		return err
	}
	switch {
	case path == "":
		path = "/state"
	case strings.HasPrefix(path, "/state/"):
	case strings.HasPrefix(path, "/"):
		path = "/state" + path
	default:
		path = "/state/" + path
	}
	body, err := get(path)
	if err != nil {
		return err
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, bytes.TrimSpace(body), "", "  "); err != nil {
		return fmt.Errorf("%s returned non-JSON: %w", path, err)
	}
	fmt.Println(pretty.String())
	return nil
}

func runController() {
	listen := flag.String("listen", "127.0.0.1:6653", "southbound listen address")
	service := flag.Duration("service-time", 0, "artificial per-request controller delay (e.g. 31ms to mimic POX)")
	workers := flag.Int("workers", 1, "concurrent request processors (1 = POX-like single thread)")
	exact := flag.Bool("exact", true, "install per-flow exact-match rules (false = wildcard pre-population)")
	flag.Parse()

	// The demo application: a three-service chain. A real deployment
	// would register the anomaly/video graphs of §2.2.
	g, err := graph.Chain("default-chain",
		graph.Vertex{Service: 1, Name: "firewall", ReadOnly: true},
		graph.Vertex{Service: 2, Name: "monitor", ReadOnly: true},
		graph.Vertex{Service: 3, Name: "shaper", ReadOnly: false},
	)
	if err != nil {
		log.Fatal(err)
	}
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1, WildcardRules: !*exact})
	if err := a.RegisterGraph(g); err != nil {
		log.Fatal(err)
	}
	a.Subscribe(func(dp control.DatapathID, src flowtable.ServiceID, m nf.Message) {
		log.Printf("app: accepted NF message from %s on %s: %s", src, dp, m)
	})

	c := controller.New(controller.Config{ServiceTime: *service, Workers: *workers})
	c.SetNorthbound(a)
	c.Start()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sdnfv-ctl: serving graph %q on %s (exact=%v workers=%d)", g.Name, *listen, *exact, *workers)

	stats := func() {
		st, err := c.Stats(context.Background())
		if err != nil {
			log.Printf("sdnfv-ctl: stats: %v", err)
			return
		}
		log.Printf("sdnfv-ctl: requests=%d flowmods=%d nfmsgs=%d rejected=%d replies-failed=%d",
			st.Requests, st.FlowMods, st.NFMsgs, st.Rejected, st.RepliesFailed)
	}
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	go func() {
		for range ticker.C {
			stats()
		}
	}()

	// Graceful shutdown: a signal closes the listener, which unblocks
	// Serve; then Stop drains in-flight requests and closes the
	// remaining control channels.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	shuttingDown := make(chan struct{})
	go func() {
		s := <-sigs
		log.Printf("sdnfv-ctl: %s received, shutting down", s)
		close(shuttingDown)
		_ = ln.Close()
	}()

	err = c.Serve(ln)
	c.Stop()
	stats()
	select {
	case <-shuttingDown:
		log.Printf("sdnfv-ctl: drained, bye")
	default:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			log.Fatal(err)
		}
	}
}
