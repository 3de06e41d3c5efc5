package ring

import (
	"runtime"
	"sync"
	"testing"
)

// TestSPSCStress drives one producer and one consumer flat out through a
// small ring (maximizing full/empty transitions) and checks that every
// descriptor arrives exactly once, in order. Run with -race to validate
// the Lamport publication protocol.
func TestSPSCStress(t *testing.T) {
	const total = 200_000
	r := NewSPSCOf[uint64](64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			if r.Enqueue(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		next := uint64(0)
		for next < total {
			d, ok := r.Dequeue()
			if !ok {
				runtime.Gosched()
				continue
			}
			if d != next {
				t.Errorf("out of order: got %d want %d", d, next)
				return
			}
			next++
		}
	}()
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not drained: %d left", r.Len())
	}
}

// TestSPSCBatchStress is the batched variant: the producer uses
// EnqueueBatch with varying burst sizes, the consumer mixes DequeueBatch
// and single Dequeue, and the sequence must still be exact.
func TestSPSCBatchStress(t *testing.T) {
	const total = 200_000
	r := NewSPSCOf[uint64](128)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]uint64, 17)
		next := uint64(0)
		for next < total {
			n := uint64(len(buf))
			if total-next < n {
				n = total - next
			}
			for i := uint64(0); i < n; i++ {
				buf[i] = next + i
			}
			sent := 0
			for sent < int(n) {
				k := r.EnqueueBatch(buf[sent:n])
				if k == 0 {
					runtime.Gosched()
					continue
				}
				sent += k
			}
			next += n
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]uint64, 23)
		next := uint64(0)
		for next < total {
			if next%2 == 0 {
				if d, ok := r.Dequeue(); ok {
					if d != next {
						t.Errorf("got %d want %d", d, next)
						return
					}
					next++
				} else {
					runtime.Gosched()
				}
				continue
			}
			n := r.DequeueBatch(buf)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				if buf[i] != next {
					t.Errorf("batch got %d want %d", buf[i], next)
					return
				}
				next++
			}
		}
	}()
	wg.Wait()
}

// TestSPSCOfBatchStress exercises the generic ring the way the NF
// instance loop drives it — EnqueueBatch bursts of varying size against a
// DequeueBatch consumer on a tiny ring — and checks order and integrity
// of every struct element under -race.
func TestSPSCOfBatchStress(t *testing.T) {
	type desc struct {
		Seq  uint64
		A, B uint64 // mirrors of Seq; a torn write would disagree
	}
	const total = 200_000
	r := NewSPSCOf[desc](16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]desc, 13)
		for base := uint64(0); base < total; {
			n := uint64(1 + base%uint64(len(buf)))
			if base+n > total {
				n = total - base
			}
			for i := uint64(0); i < n; i++ {
				s := base + i
				buf[i] = desc{Seq: s, A: s * 7, B: ^s}
			}
			sent := uint64(0)
			for sent < n {
				k := r.EnqueueBatch(buf[sent:n])
				if k == 0 {
					runtime.Gosched()
					continue
				}
				sent += uint64(k)
			}
			base += n
		}
	}()
	go func() {
		defer wg.Done()
		batch := make([]desc, 9)
		next := uint64(0)
		for next < total {
			var n int
			if next%2 == 0 {
				n = r.DequeueBatch(batch)
			} else if d, ok := r.Dequeue(); ok {
				batch[0], n = d, 1
			}
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				d := batch[i]
				if d.Seq != next || d.A != next*7 || d.B != ^next {
					t.Errorf("torn or reordered descriptor at %d: %+v", next, d)
					return
				}
				next++
			}
		}
	}()
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not drained: %d left", r.Len())
	}
}

// TestSPSCOfStress pushes struct descriptors (the generic ring carries the
// data plane's ~100-byte Desc) through a tiny ring and checks that no
// element is torn: every field of a received value must agree.
func TestSPSCOfStress(t *testing.T) {
	type desc struct {
		Seq  uint64
		A, B uint64 // mirrors of Seq; a torn read would disagree
		Pad  [8]uint64
	}
	const total = 100_000
	r := NewSPSCOf[desc](32)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			d := desc{Seq: i, A: i * 3, B: ^i}
			if r.Enqueue(d) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		batch := make([]desc, 9)
		next := uint64(0)
		for next < total {
			n := r.DequeueBatch(batch)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				d := batch[i]
				if d.Seq != next || d.A != next*3 || d.B != ^next {
					t.Errorf("torn descriptor at %d: %+v", next, d)
					return
				}
				next++
			}
		}
	}()
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not drained: %d left", r.Len())
	}
}
