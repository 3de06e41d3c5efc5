package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.total != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, v := range []float64{10, 20, 30} {
		h.Observe(v)
	}
	if h.total != 3 {
		t.Fatalf("count = %d", h.total)
	}
	if math.Abs(h.Mean()-20) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	// Log buckets bound relative error ~4%.
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := q * 1000
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("q%.2f = %v, want ≈%v", q, got, want)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 1000 {
		t.Fatalf("extremes = %v %v", h.Quantile(0), h.Quantile(1))
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(float64(v))
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev || v < h.Min()-1e-9 || v > h.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(7)
	if c.Value() != 12 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("empty value = %v", e.Value())
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation must seed directly, got %v", e.Value())
	}
	e.Observe(200)
	if v := e.Value(); math.Abs(v-150) > 1e-9 {
		t.Fatalf("after 200: %v, want 150", v)
	}
	// A true zero average is representable (not confused with empty).
	z := NewEWMA(1)
	z.Observe(0)
	z.Observe(0)
	if z.Value() != 0 {
		t.Fatalf("zero average = %v", z.Value())
	}
	// Out-of-range alpha clamps instead of exploding.
	c := NewEWMA(-3)
	c.Observe(10)
	c.Observe(10)
	if c.Value() != 10 {
		t.Fatalf("clamped alpha average = %v", c.Value())
	}
}

func TestEWMAConcurrent(t *testing.T) {
	e := NewEWMA(0.1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(42)
				_ = e.Value()
			}
		}()
	}
	wg.Wait()
	if v := e.Value(); math.Abs(v-42) > 1e-9 {
		t.Fatalf("converged value = %v, want 42", v)
	}
}
