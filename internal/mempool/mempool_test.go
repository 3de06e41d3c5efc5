package mempool

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocReleaseCycle(t *testing.T) {
	p := New(4, 64)
	var hs []Handle
	for i := 0; i < 4; i++ {
		h, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		hs = append(hs, h)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Alloc on empty pool: err = %v, want ErrExhausted", err)
	}
	for _, h := range hs {
		if err := p.Release(h); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	st := p.Stats()
	if st.InUse != 0 || st.Allocs != 4 || st.Frees != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// Pool usable again.
	if _, err := p.Alloc(); err != nil {
		t.Fatalf("Alloc after release: %v", err)
	}
}

func TestStaleHandleDetected(t *testing.T) {
	p := New(2, 64)
	h, _ := p.Alloc()
	if err := p.Release(h); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Buf(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("Buf on stale handle: %v, want ErrStaleHandle", err)
	}
	if err := p.Release(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("double Release: %v, want ErrStaleHandle", err)
	}
}

func TestRefcountParallel(t *testing.T) {
	p := New(2, 64)
	h, _ := p.Alloc()
	if err := p.Retain(h, 2); err != nil { // parallelization factor 3 total
		t.Fatal(err)
	}
	if n, _ := p.RefCount(h); n != 3 {
		t.Fatalf("RefCount = %d, want 3", n)
	}
	for i := 0; i < 2; i++ {
		if err := p.Release(h); err != nil {
			t.Fatalf("Release %d: %v", i, err)
		}
		if _, err := p.Buf(h); err != nil {
			t.Fatalf("buffer freed early at release %d: %v", i, err)
		}
	}
	if err := p.Release(h); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Buf(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatal("buffer should be freed after last release")
	}
}

func TestSetLength(t *testing.T) {
	p := New(1, 128)
	h, _ := p.Alloc()
	if err := p.SetLength(h, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.SetLength(h, 129); err == nil {
		t.Fatal("SetLength beyond capacity should fail")
	}
	data, err := p.Data(h)
	if err != nil || len(data) != 100 {
		t.Fatalf("Data len = %d err = %v", len(data), err)
	}
}

func TestBuffersDisjoint(t *testing.T) {
	p := New(3, 32)
	h1, _ := p.Alloc()
	h2, _ := p.Alloc()
	b1, _ := p.Buf(h1)
	b2, _ := p.Buf(h2)
	for i := range b1 {
		b1[i] = 0xAA
	}
	for _, b := range b2 {
		if b == 0xAA {
			t.Fatal("buffers alias each other")
		}
	}
	if cap(b1) != 32 {
		t.Fatalf("buffer cap = %d, want 32 (full-slice-expr cap)", cap(b1))
	}
}

// TestConcurrentAllocRelease hammers the lock-free free list from many
// goroutines: every alloc must return a distinct live buffer, and the pool
// must end balanced.
func TestConcurrentAllocRelease(t *testing.T) {
	const workers = 8
	const iters = 5000
	p := New(64, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h, err := p.Alloc()
				if err != nil {
					continue // transient exhaustion is legal
				}
				buf, err := p.Buf(h)
				if err != nil {
					t.Errorf("live handle invalid: %v", err)
					return
				}
				buf[0] = byte(i)
				if err := p.Release(h); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.InUse != 0 {
		t.Fatalf("pool unbalanced: %+v", st)
	}
}

// TestPropertyNoDoubleAllocation: however allocations and frees interleave
// sequentially, no two live handles share a buffer index.
func TestPropertyNoDoubleAllocation(t *testing.T) {
	f := func(ops []bool) bool {
		p := New(8, 16)
		live := map[uint32]Handle{}
		var order []Handle
		for _, alloc := range ops {
			if alloc {
				h, err := p.Alloc()
				if err != nil {
					if len(live) != 8 {
						return false // exhausted while buffers remain
					}
					continue
				}
				if _, dup := live[h.Index()]; dup {
					return false // same buffer handed out twice
				}
				live[h.Index()] = h
				order = append(order, h)
			} else if len(order) > 0 {
				h := order[0]
				order = order[1:]
				delete(live, h.Index())
				if p.Release(h) != nil {
					return false
				}
			}
		}
		return p.Stats().InUse == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHandleEncoding(t *testing.T) {
	h := makeHandle(7, 42)
	if h.Index() != 7 || h.Generation() != 42 {
		t.Fatalf("handle roundtrip: idx=%d gen=%d", h.Index(), h.Generation())
	}
	if NilHandle.Index() != 0 || NilHandle.Generation() != 0 {
		t.Fatal("NilHandle must be (0,0)")
	}
}

func TestInvalidDimensionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,0) should panic")
		}
	}()
	New(0, 0)
}

func BenchmarkAllocRelease(b *testing.B) {
	p := New(1024, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, _ := p.Alloc()
		_ = p.Release(h)
	}
}
