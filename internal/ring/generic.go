package ring

import "sync/atomic"

// SPSCOf is a bounded lock-free single-producer/single-consumer queue of T.
// The element slots are plain memory: the Lamport algorithm guarantees the
// producer's slot write happens-before the consumer's read via the
// release-store on head / acquire-load in Dequeue, so T may be any struct
// (the data plane moves ~100-byte packet descriptors through these).
type SPSCOf[T any] struct {
	mask uint64
	buf  []T

	_    pad
	head atomic.Uint64
	_    pad
	tail atomic.Uint64
	_    pad

	cachedTail uint64
	_          pad
	cachedHead uint64
}

// NewSPSCOf returns a ring with capacity rounded up to a power of two.
func NewSPSCOf[T any](capacity int) *SPSCOf[T] {
	if capacity < 2 {
		capacity = 2
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSCOf[T]{mask: uint64(n - 1), buf: make([]T, n)}
}

// Len returns an instantaneous queue-depth snapshot.
//
//sdnfv:hotpath
func (r *SPSCOf[T]) Len() int {
	return int(r.head.Load() - r.tail.Load())
}

// Enqueue appends v; false when full. Single producer only.
//
//sdnfv:hotpath
func (r *SPSCOf[T]) Enqueue(v T) bool {
	h := r.head.Load()
	if h-r.cachedTail > r.mask {
		r.cachedTail = r.tail.Load()
		if h-r.cachedTail > r.mask {
			return false
		}
	}
	r.buf[h&r.mask] = v
	r.head.Store(h + 1)
	return true
}

// Dequeue removes the oldest element; false when empty. Single consumer.
//
//sdnfv:hotpath
func (r *SPSCOf[T]) Dequeue() (T, bool) {
	var zero T
	t := r.tail.Load()
	if t >= r.cachedHead {
		r.cachedHead = r.head.Load()
		if t >= r.cachedHead {
			return zero, false
		}
	}
	v := r.buf[t&r.mask]
	r.buf[t&r.mask] = zero // release references held by the slot
	r.tail.Store(t + 1)
	return v, true
}

// EnqueueBatch appends as many elements of src as fit and returns the
// number enqueued (possibly 0 when full). The mirror of DequeueBatch: one
// release-store on the producer index covers the whole burst, so the NF
// out-path pays one atomic per burst instead of one per descriptor.
// Single producer only.
//
//sdnfv:hotpath
func (r *SPSCOf[T]) EnqueueBatch(src []T) int {
	h := r.head.Load()
	if h+uint64(len(src))-r.cachedTail > r.mask+1 {
		// Looks too full for the whole burst: refresh the consumer index
		// once and enqueue whatever actually fits.
		r.cachedTail = r.tail.Load()
	}
	free := r.mask + 1 - (h - r.cachedTail)
	n := uint64(len(src))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(h+i)&r.mask] = src[i]
	}
	if n > 0 {
		r.head.Store(h + n)
	}
	return int(n)
}

// DequeueBatch fills dst and returns the count dequeued. Single consumer.
//
//sdnfv:hotpath
func (r *SPSCOf[T]) DequeueBatch(dst []T) int {
	var zero T
	t := r.tail.Load()
	if t >= r.cachedHead {
		r.cachedHead = r.head.Load()
		if t >= r.cachedHead {
			return 0
		}
	}
	n := int(r.cachedHead - t)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		idx := (t + uint64(i)) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = zero
	}
	r.tail.Store(t + uint64(n))
	return n
}
