package control_test

// Benchmarks for the ISSUE 2 acceptance criterion: with a 1 ms
// controller service time and ≥ 8 in-flight misses, pipelined southbound
// resolution must beat the serial blocking path by ≥ 4× in aggregate
// new-flow setup throughput. Both benchmarks run against the same
// controller configuration (1 ms service, 8 workers) over real TCP
// loopback; the only difference is how many PacketIns the client keeps
// in flight. Run with:
//
//	go test -bench Southbound -benchtime 2s ./internal/control
//
// and compare the flows/s metric (README "Control plane" records the
// measured numbers).

import (
	"context"
	"net"
	"testing"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
)

const benchInflight = 8

func benchClient(b *testing.B) *control.Client {
	b.Helper()
	g, err := graph.Chain("bench", graph.Vertex{Service: 1, Name: "fw", ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(g); err != nil {
		b.Fatal(err)
	}
	ctl := controller.New(controller.Config{
		ServiceTime: time.Millisecond,
		Workers:     benchInflight,
		QueueDepth:  4096,
	})
	ctl.SetNorthbound(a)
	ctl.Start()
	b.Cleanup(ctl.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = ln.Close() })
	go func() { _ = ctl.Serve(ln) }()
	client, err := control.DialAs(context.Background(), ln.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = client.Close() })
	return client
}

// BenchmarkSouthboundSerial is the old MissHandler discipline: one
// blocking controller round trip per miss.
func BenchmarkSouthboundSerial(b *testing.B) {
	client := benchClient(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resolveOne(ctx, client, testKey(uint16(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkSouthboundPipelined keeps benchInflight misses in flight per
// ResolveBatch, the way the Flow Controller thread drains a burst.
func BenchmarkSouthboundPipelined(b *testing.B) {
	client := benchClient(b)
	ctx := context.Background()
	reqs := make([]control.ResolveRequest, benchInflight)
	out := make([]control.ResolveResult, benchInflight)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := benchInflight
		if b.N-done < n {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			reqs[i] = control.ResolveRequest{Scope: flowtable.Port(0), Key: testKey(uint16(done + i))}
		}
		client.ResolveBatch(ctx, reqs[:n], out[:n])
		for i := 0; i < n; i++ {
			if out[i].Err != nil {
				b.Fatal(out[i].Err)
			}
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}
