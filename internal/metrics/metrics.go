// Package metrics provides the measurement primitives used across the
// SDNFV reproduction: log-bucketed latency histograms with percentile
// extraction and Prometheus-style export, exponentially-weighted moving
// averages, and thread-safe counters.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Histogram is a log-bucketed histogram of non-negative values (typically
// nanoseconds). Buckets grow geometrically so that relative error is
// bounded (~4%) across nine decades. The zero value is not usable; call
// NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    float64
	min    float64
	max    float64
	growth float64
	logG   float64
}

// NewHistogram returns a histogram with ~4% relative bucket error.
func NewHistogram() *Histogram {
	g := 1.04
	return &Histogram{
		counts: make([]uint64, 1+bucketFor(1e18, g)),
		min:    math.Inf(1),
		max:    math.Inf(-1),
		growth: g,
		logG:   math.Log(g),
	}
}

func bucketFor(v, g float64) int {
	if v < 1 {
		return 0
	}
	return 1 + int(math.Log(v)/math.Log(g))
}

// bucketLow returns the lower bound of bucket i.
func (h *Histogram) bucketLow(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Exp(float64(i-1) * h.logG)
}

// Observe records v (values below 0 are clamped to 0).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := bucketFor(v, h.growth)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated from buckets.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			lo := h.bucketLow(i)
			hi := h.bucketLow(i + 1)
			v := (lo + hi) / 2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Export maps the histogram onto caller-supplied ascending upper bounds
// and returns the cumulative count at or below each bound, plus the
// total count and sum — the shape a Prometheus histogram family needs.
// Each internal log bucket is attributed to its midpoint (clamped to
// the observed min/max), consistent with Quantile, so exported bucket
// placement carries the same ~4% relative error as every other readout.
func (h *Histogram) Export(bounds []float64) (cum []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(bounds))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		v := (h.bucketLow(i) + h.bucketLow(i+1)) / 2
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		for bi, ub := range bounds {
			if v <= ub {
				cum[bi] += c
			}
		}
	}
	return cum, h.total, h.sum
}

// EWMA is a lock-free exponentially weighted moving average. The data
// plane records one observation per burst (e.g. per-packet service time),
// so updates must not take a lock; a CAS loop over the float bits keeps
// Observe wait-free in the common uncontended single-writer case while
// Value stays safe for any number of concurrent readers.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64
}

// ewmaEmpty marks an EWMA with no observations yet. It is a NaN payload
// that Observe never stores (averages of finite inputs are finite), so it
// cannot collide with a real value.
const ewmaEmpty = ^uint64(0)

// NewEWMA returns an average with smoothing factor alpha in (0, 1]; higher
// alpha weights recent observations more. Out-of-range alphas are clamped
// to 0.2, a common choice for load signals.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	e := &EWMA{alpha: alpha}
	e.bits.Store(ewmaEmpty)
	return e
}

// Observe folds v into the average. The first observation seeds the
// average directly.
//
//sdnfv:hotpath
func (e *EWMA) Observe(v float64) {
	for {
		old := e.bits.Load()
		var next float64
		if old == ewmaEmpty {
			next = v
		} else {
			cur := math.Float64frombits(old)
			next = cur + e.alpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Value returns the current average, or 0 before any observation.
//
//sdnfv:hotpath
func (e *EWMA) Value() float64 {
	b := e.bits.Load()
	if b == ewmaEmpty {
		return 0
	}
	return math.Float64frombits(b)
}

// Counter is a thread-safe monotonically increasing counter.
type Counter struct {
	mu sync.Mutex
	v  uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.mu.Lock()
	c.v += n
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}
