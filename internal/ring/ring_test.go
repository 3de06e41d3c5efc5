package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestSPSCBasic(t *testing.T) {
	r := NewSPSCOf[uint64](4)
	if len(r.buf) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.buf))
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("Dequeue on empty ring succeeded")
	}
	for i := uint64(0); i < 4; i++ {
		if !r.Enqueue(i) {
			t.Fatalf("Enqueue(%d) failed on non-full ring", i)
		}
	}
	if r.Enqueue(99) {
		t.Fatal("Enqueue succeeded on full ring")
	}
	for i := uint64(0); i < 4; i++ {
		v, ok := r.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {1000, 1024},
	} {
		if got := len(NewSPSCOf[uint64](tc.in).buf); got != tc.want {
			t.Errorf("NewSPSCOf[uint64](%d) capacity = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSPSCLen(t *testing.T) {
	r := NewSPSCOf[uint64](8)
	for i := uint64(0); i < 5; i++ {
		r.Enqueue(i)
	}
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	r.Dequeue()
	r.Dequeue()
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestSPSCConcurrentFIFO checks the core invariant: under one producer and
// one consumer, every value arrives exactly once, in order.
func TestSPSCConcurrentFIFO(t *testing.T) {
	const n = 30_000
	r := NewSPSCOf[uint64](1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; {
			if r.Enqueue(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var got uint64
	for got < n {
		v, ok := r.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != got {
			t.Fatalf("out of order: got %d, want %d", v, got)
		}
		got++
	}
	wg.Wait()
	if _, ok := r.Dequeue(); ok {
		t.Fatal("ring should be empty after draining")
	}
}

func TestSPSCBatchConcurrent(t *testing.T) {
	const n = 30_000
	r := NewSPSCOf[uint64](256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := make([]uint64, 64)
		i := uint64(0)
		for i < n {
			k := 0
			for k < len(src) && i+uint64(k) < n {
				src[k] = i + uint64(k)
				k++
			}
			sent := r.EnqueueBatch(src[:k])
			if sent == 0 {
				runtime.Gosched()
			}
			i += uint64(sent)
		}
	}()
	dst := make([]uint64, 64)
	var want uint64
	for want < n {
		m := r.DequeueBatch(dst)
		if m == 0 {
			runtime.Gosched()
		}
		for j := 0; j < m; j++ {
			if dst[j] != want {
				t.Fatalf("batch out of order: got %d, want %d", dst[j], want)
			}
			want++
		}
	}
	wg.Wait()
}

// TestSPSCSequentialProperty: any interleaving of enqueues and dequeues on
// a single goroutine behaves like a FIFO queue.
func TestSPSCSequentialProperty(t *testing.T) {
	f := func(ops []bool, vals []uint64) bool {
		r := NewSPSCOf[uint64](16)
		var model []uint64
		vi := 0
		for _, enq := range ops {
			if enq {
				v := uint64(vi)
				if vi < len(vals) {
					v = vals[vi]
				}
				vi++
				ok := r.Enqueue(v)
				if ok {
					model = append(model, v)
				} else if len(model) < len(r.buf) {
					return false // ring refused while model not full
				}
			} else {
				v, ok := r.Dequeue()
				if ok {
					if len(model) == 0 || model[0] != v {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false
				}
			}
		}
		return r.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMPSCBasic(t *testing.T) {
	r := NewMPSC(3)
	for i := 0; i < 3; i++ {
		if err := r.Push(i); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	if err := r.Push(4); err == nil {
		t.Fatal("Push on full ring should fail")
	}
	for want := 0; want < 3; want++ {
		v, ok := r.Pop()
		if !ok || v.(int) != want {
			t.Fatalf("Pop = (%v,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on an empty ring succeeded")
	}
}

func TestMPSCConcurrentProducers(t *testing.T) {
	r := NewMPSC(10_000)
	var wg sync.WaitGroup
	const producers, per = 8, 100
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := r.Push(p*per + i); err != nil {
					t.Errorf("Push: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	seen := make(map[int]bool)
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if seen[v.(int)] {
			t.Fatalf("duplicate value %v", v)
		}
		seen[v.(int)] = true
	}
	if len(seen) != producers*per {
		t.Fatalf("got %d values, want %d", len(seen), producers*per)
	}
}

func TestSPSCOfStructs(t *testing.T) {
	type item struct {
		A int
		B string
	}
	r := NewSPSCOf[item](4)
	if !r.Enqueue(item{1, "x"}) {
		t.Fatal("Enqueue failed")
	}
	v, ok := r.Dequeue()
	if !ok || v.A != 1 || v.B != "x" {
		t.Fatalf("Dequeue = %+v, %v", v, ok)
	}
}

func TestSPSCOfEnqueueBatch(t *testing.T) {
	r := NewSPSCOf[int](4)
	// Partial fit: capacity 4, offering 6 accepts exactly 4.
	if n := r.EnqueueBatch([]int{1, 2, 3, 4, 5, 6}); n != 4 {
		t.Fatalf("EnqueueBatch into empty ring = %d, want 4", n)
	}
	// Full ring accepts nothing.
	if n := r.EnqueueBatch([]int{7}); n != 0 {
		t.Fatalf("EnqueueBatch into full ring = %d, want 0", n)
	}
	// Empty burst is a no-op.
	if n := r.EnqueueBatch(nil); n != 0 {
		t.Fatalf("EnqueueBatch(nil) = %d, want 0", n)
	}
	// FIFO order preserved, and freed space is reusable.
	for want := 1; want <= 2; want++ {
		if v, ok := r.Dequeue(); !ok || v != want {
			t.Fatalf("Dequeue = %d,%v want %d", v, ok, want)
		}
	}
	if n := r.EnqueueBatch([]int{8, 9, 10}); n != 2 {
		t.Fatalf("EnqueueBatch after partial drain = %d, want 2", n)
	}
	// Drain everything (DequeueBatch may return partial views while its
	// cached producer index is stale) and check FIFO order.
	var drained []int
	buf := make([]int, 8)
	for {
		n := r.DequeueBatch(buf)
		if n == 0 {
			break
		}
		drained = append(drained, buf[:n]...)
	}
	want := []int{3, 4, 8, 9}
	if len(drained) != len(want) {
		t.Fatalf("drained %v, want %v", drained, want)
	}
	for i := range want {
		if drained[i] != want[i] {
			t.Fatalf("drained %v, want %v", drained, want)
		}
	}
}

func TestSPSCOfConcurrentFIFO(t *testing.T) {
	const n = 30_000
	type item struct{ seq uint64 }
	r := NewSPSCOf[item](512)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; {
			if r.Enqueue(item{seq: i}) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var want uint64
	buf := make([]item, 32)
	for want < n {
		m := r.DequeueBatch(buf)
		if m == 0 {
			runtime.Gosched()
		}
		for j := 0; j < m; j++ {
			if buf[j].seq != want {
				t.Fatalf("out of order: got %d, want %d", buf[j].seq, want)
			}
			want++
		}
	}
	wg.Wait()
}

func BenchmarkSPSCEnqueueDequeue(b *testing.B) {
	r := NewSPSCOf[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enqueue(uint64(i))
		r.Dequeue()
	}
}

func BenchmarkSPSCOfDescSized(b *testing.B) {
	type desc struct {
		h        uint64
		key      [16]byte
		scope    uint16
		verb     uint8
		arrival  int64
		entryPtr uintptr
	}
	r := NewSPSCOf[desc](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enqueue(desc{h: uint64(i)})
		r.Dequeue()
	}
}
