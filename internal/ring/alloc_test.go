//go:build !race

package ring

// Zero-allocation budget tests for the ring fast paths — the measured
// counterpart of the hotpath analyzer's static no-alloc proof. Excluded
// under the race detector, whose instrumentation changes allocation
// behavior.

import "testing"

func TestSPSCZeroAlloc(t *testing.T) {
	r := NewSPSCOf[uint64](256)
	if n := testing.AllocsPerRun(200, func() {
		if !r.Enqueue(42) {
			t.Fatal("enqueue refused on a non-full ring")
		}
		if _, ok := r.Dequeue(); !ok {
			t.Fatal("dequeue empty on a non-empty ring")
		}
	}); n != 0 {
		t.Errorf("SPSC enqueue/dequeue allocates %.1f/op, want 0", n)
	}
}

func TestSPSCOfBatchZeroAlloc(t *testing.T) {
	r := NewSPSCOf[uint64](256)
	src := make([]uint64, 64)
	dst := make([]uint64, 64)
	if n := testing.AllocsPerRun(200, func() {
		if k := r.EnqueueBatch(src); k != len(src) {
			t.Fatalf("enqueued %d of %d", k, len(src))
		}
		if k := r.DequeueBatch(dst); k != len(dst) {
			t.Fatalf("dequeued %d of %d", k, len(dst))
		}
	}); n != 0 {
		t.Errorf("SPSCOf batch ops allocate %.1f/op, want 0", n)
	}
}
