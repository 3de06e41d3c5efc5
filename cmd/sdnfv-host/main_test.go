package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"sdnfv/internal/spec"
)

var singleHostSpec = filepath.Join("..", "..", "examples", "specs", "single-host.json")

// runHost parses args and runs the whole program, returning stdout.
func runHost(t *testing.T, args ...string) string {
	t.Helper()
	opts, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(opts, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

func TestFlagModeEndToEnd(t *testing.T) {
	out := runHost(t, "-packets", "300")
	for _, want := range []string{
		"host1 rx=300 tx=300 drops=0 overflows=0 txdrops=0 rxdrops=0",
		"flag mode: generation=1 converged=true delivered=300",
		"sdnfv_host_rx_packets_total",
		"sdnfv_controller_requests_total",
		`sdnfv_autoscale_replicas{service="svc:2"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpecModeEndToEnd(t *testing.T) {
	out := runHost(t, "-spec", filepath.Join("..", "..", "examples", "specs", "two-host.json"), "-packets", "300")
	for _, want := range []string{
		"host1 rx=300 tx=300 drops=0 overflows=0",
		"host2 rx=300 tx=300 drops=0 overflows=0",
		"spec mode: generation=1 converged=true delivered=300",
		"sdnfv_link_tx_frames_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpecRefusesSpecInputFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale-min", "2"}, {"-scale-max", "5"}, {"-autoscale=false"},
		{"-datapath", "7"}, {"-flow-idle", "1s"}, {"-flow-hard", "1s"},
	} {
		_, err := parseFlags(append([]string{"-spec", singleHostSpec}, args...))
		if err == nil || !strings.Contains(err.Error(), "conflicts with -spec") {
			t.Errorf("-spec with %v: err = %v, want a conflict", args, err)
		}
	}
	if _, err := parseFlags([]string{"-spec", singleHostSpec, "-packets", "5", "-flows", "2", "-telemetry", "127.0.0.1:0"}); err != nil {
		t.Fatalf("generator/telemetry flags refused with -spec: %v", err)
	}
}

// TestFlagsAreTheSingleHostSpec is the golden: the flag path IS the
// single-host example, so there is nothing for a second boot path to do.
func TestFlagsAreTheSingleHostSpec(t *testing.T) {
	opts, err := parseFlags([]string{"-datapath", "1"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := specFromFlags(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Load(singleHostSpec)
	if err != nil {
		t.Fatal(err)
	}
	if cs := spec.Diff(got, want); !cs.Empty() || got.Name != want.Name {
		t.Fatalf("flags and %s differ (%q vs %q): %v", singleHostSpec, got.Name, want.Name, cs.Summary())
	}
}

func TestSpecFromFlagsInputs(t *testing.T) {
	opts, err := parseFlags([]string{"-autoscale=false", "-scale-max", "9", "-flow-idle", "30s", "-flow-hard", "2m"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := specFromFlags(opts)
	if err != nil {
		t.Fatal(err)
	}
	counter, _ := sp.Service("counter")
	if counter.Scale != (spec.Bounds{Min: 1, Max: 1}) {
		t.Errorf("-autoscale=false left bounds %+v", counter.Scale)
	}
	if sp.FlowTimeouts == nil || sp.FlowTimeouts.IdleMs != 30000 || sp.FlowTimeouts.HardMs != 120000 {
		t.Errorf("flow timeouts = %+v", sp.FlowTimeouts)
	}
	for _, bad := range [][]string{
		{"-scale-min", "4", "-scale-max", "2"},
		{"-flow-idle", "1500us"},
	} {
		opts, err := parseFlags(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := specFromFlags(opts); err == nil {
			t.Errorf("specFromFlags accepted %v", bad)
		}
	}
}
