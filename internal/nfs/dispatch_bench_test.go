package nfs

import (
	"fmt"
	"testing"

	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// BenchmarkNFDispatch measures the NF dispatch cost per packet: an NF
// that makes one indirect call per packet against the native batch
// interface (one call per burst), at the burst sizes the engine
// actually produces. The out-array clear mirrors the engine's per-burst
// zeroing, so both sides pay identical fixed costs. ns/op is per packet.
//
//	go test -bench NFDispatch -benchmem ./internal/nfs
func BenchmarkNFDispatch(b *testing.B) {
	bd := packet.Builder{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 1, 0, 1),
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	frame := make([]byte, 512)
	n, err := bd.Build(frame, []byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	v, err := packet.Parse(frame[:n])
	if err != nil {
		b.Fatal(err)
	}

	// Per-packet equivalents of the native NFs: one call per packet.
	perPacket := func(name string, f func(p *nf.Packet) nf.Decision) nf.BatchFunction {
		return &nf.BatchAdapter{FnName: name, RO: true,
			ProcessBatchF: func(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
				for i := range batch {
					out[i] = f(&batch[i])
				}
			}}
	}
	ppNoop := perPacket("noop", func(*nf.Packet) nf.Decision { return nf.Decision{} })
	mkPPCounter := func(c *Counter) nf.BatchFunction {
		return perPacket("counter", func(p *nf.Packet) nf.Decision {
			c.packets.Add(1)
			c.bytes.Add(uint64(len(p.View.Buf())))
			return nf.Decision{}
		})
	}

	for _, burst := range []int{1, 8, 32, 64} {
		batch := make([]nf.Packet, burst)
		for i := range batch {
			batch[i] = nf.Packet{View: &v, Key: v.FlowKey()}
		}
		out := make([]nf.Decision, burst)
		cases := []struct {
			name string
			fn   nf.BatchFunction
		}{
			{"noop/perpkt", ppNoop},
			{"noop/native", NoOp{}},
			{"counter/perpkt", mkPPCounter(&Counter{})},
			{"counter/native", &Counter{}},
		}
		for _, tc := range cases {
			b.Run(fmt.Sprintf("%s/burst=%d", tc.name, burst), func(b *testing.B) {
				ctx := &nf.Context{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += burst {
					k := burst
					if rem := b.N - i; rem < k {
						k = rem
					}
					clear(out[:k])
					tc.fn.ProcessBatch(ctx, batch[:k], out[:k])
				}
			})
		}
	}
}
