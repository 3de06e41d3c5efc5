package sim

import (
	"math"
	"testing"

	"sdnfv/internal/packet"
)

func testKey() packet.FlowKey {
	return packet.FlowKey{SrcIP: packet.IPv4(1, 1, 1, 1), DstIP: packet.IPv4(2, 2, 2, 2), SrcPort: 1, DstPort: 2, Proto: 17}
}

func TestLinkSerializationAndDelay(t *testing.T) {
	env := NewEnv(1)
	sink := NewSink(env)
	// 1 Mbps link, 10 ms propagation: a 1250-byte packet serializes in
	// 10 ms, arrives at 20 ms.
	l := NewLink(env, 1e6, 0.010, 0, sink)
	l.Accept(&Packet{Key: testKey(), Bytes: 1250, Born: 0})
	env.Run(1)
	if sink.Packets.Value() != 1 {
		t.Fatal("packet lost")
	}
	lat := sink.Latency.Mean() / 1e9 // ns -> s
	if math.Abs(lat-0.020) > 1e-6 {
		t.Fatalf("latency = %v, want 0.020", lat)
	}
	if l.TxBytes.Value() != 1250 {
		t.Fatalf("tx bytes = %d", l.TxBytes.Value())
	}
}

func TestLinkQueueing(t *testing.T) {
	env := NewEnv(1)
	sink := NewSink(env)
	l := NewLink(env, 1e6, 0, 0, sink)
	// Two packets back to back: the second queues behind the first.
	l.Accept(&Packet{Key: testKey(), Bytes: 1250, Born: 0})
	l.Accept(&Packet{Key: testKey(), Bytes: 1250, Born: 0})
	env.Run(1)
	if sink.Packets.Value() != 2 {
		t.Fatal("packets lost")
	}
	if max := sink.Latency.Max() / 1e9; math.Abs(max-0.020) > 1e-6 {
		t.Fatalf("queued latency = %v, want 0.020", max)
	}
}

func TestLinkDropWhenBounded(t *testing.T) {
	env := NewEnv(1)
	sink := NewSink(env)
	l := NewLink(env, 1e3, 0, 1, sink) // 1 kbps, queue of 1
	for i := 0; i < 5; i++ {
		l.Accept(&Packet{Key: testKey(), Bytes: 125, Born: 0})
	}
	env.Run(10)
	if l.q.Dropped == 0 {
		t.Fatal("bounded link never dropped")
	}
	if sink.Packets.Value()+l.q.Dropped != 5 {
		t.Fatalf("conservation: %d delivered + %d dropped != 5", sink.Packets.Value(), l.q.Dropped)
	}
}

func TestNFStageProcessAndDrop(t *testing.T) {
	env := NewEnv(1)
	sink := NewSink(env)
	stage := NewNFStage(env, 0, func(*Packet) Time { return 0.001 }, func(p *Packet) Stage {
		if p.Mark == 1 {
			return nil // drop marked packets
		}
		return sink
	})
	stage.Accept(&Packet{Key: testKey(), Bytes: 100, Mark: 1})
	stage.Accept(&Packet{Key: testKey(), Bytes: 100})
	env.Run(1)
	if sink.Packets.Value() != 1 || stage.Drops.Value() != 1 || stage.Processed.Value() != 2 {
		t.Fatalf("sink=%d drops=%d processed=%d", sink.Packets.Value(), stage.Drops.Value(), stage.Processed.Value())
	}
}

func TestControllerModelSaturation(t *testing.T) {
	env := NewEnv(1)
	c := NewControllerModel(env, 0.001, 0, 2) // 1000 req/s capacity, queue 2
	served := 0
	// Offer 100 requests instantly: 1 in service + 2 queued accepted… the
	// rest rejected.
	accepted := 0
	for i := 0; i < 100; i++ {
		if c.Submit(func() { served++ }) == nil {
			accepted++
		}
	}
	env.Run(10)
	if accepted != 3 {
		t.Fatalf("accepted = %d, want 3", accepted)
	}
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
	if c.Rejected.Value() != 97 {
		t.Fatalf("rejected = %d", c.Rejected.Value())
	}
	// Requests counts admitted submissions only (control.Stats
	// semantics): offered = Requests + Rejected.
	if c.Requests.Value() != 3 {
		t.Fatalf("requests = %d, want 3", c.Requests.Value())
	}
}

func TestOVSSwitchPuntPath(t *testing.T) {
	env := NewEnv(3)
	sink := NewSink(env)
	ctrl := NewControllerModel(env, 0.0001, 0.0001, 1024)
	sw := NewOVSSwitch(env, 1e6, 0.5, ctrl, sink) // 50% punted
	src := NewCBRSource(env, testKey(), 100, func(Time) float64 { return 8e5 }, sw)
	src.Start()
	env.Run(0.5)
	src.Stop()
	env.Run(1)
	if ctrl.Requests.Value() == 0 {
		t.Fatal("nothing punted")
	}
	frac := float64(sw.Punts.Value()) / float64(src.Emitted.Value())
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("punt fraction = %v, want ≈0.5", frac)
	}
	// Everything eventually forwards (controller fast enough here).
	if sink.Packets.Value() != src.Emitted.Value() {
		t.Fatalf("delivered %d of %d", sink.Packets.Value(), src.Emitted.Value())
	}
}

func TestCBRSourceRate(t *testing.T) {
	env := NewEnv(1)
	sink := NewSink(env)
	src := NewCBRSource(env, testKey(), 1000, func(Time) float64 { return 8e6 }, sink)
	src.Start()
	env.Run(1.0)
	src.Stop()
	// 8 Mbps at 8000 bits/pkt = 1000 pps.
	got := sink.Packets.Value()
	if got < 990 || got > 1010 {
		t.Fatalf("packets in 1s = %d, want ≈1000", got)
	}
}

func TestCBRSourcePausesAtZeroRate(t *testing.T) {
	env := NewEnv(1)
	sink := NewSink(env)
	rate := func(t Time) float64 {
		if t < 1 {
			return 0
		}
		return 8e6
	}
	src := NewCBRSource(env, testKey(), 1000, rate, sink)
	src.PollSec = 0.05
	src.Start()
	env.Run(0.9)
	if sink.Packets.Value() != 0 {
		t.Fatal("emitted while paused")
	}
	env.Run(2)
	if sink.Packets.Value() == 0 {
		t.Fatal("never resumed")
	}
}
