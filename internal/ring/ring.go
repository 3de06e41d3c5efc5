// Package ring provides the lock-free ring buffers used as the only
// communication channel between the NF Manager and network functions.
//
// The paper's data plane forbids locks on the packet path: "synchronization
// primitives such as locks cannot be used since they can take tens of
// nanoseconds to acquire" (§4.1). Every NF therefore owns a pair of
// single-producer/single-consumer (SPSC) rings shared with the manager's RX
// and TX threads. Only small packet descriptors travel through the rings;
// packet data stays in the shared memory pool (see package mempool).
package ring

import (
	"fmt"
	"sync"
)

// pad separates hot atomics onto different cache lines to avoid false
// sharing between the producer and consumer cores.
type pad [56]byte

// MPSC is a bounded multi-producer/single-consumer queue used for control
// messages (cross-layer messages from NFs to the NF Manager, §3.4). Control
// traffic is orders of magnitude rarer than packet traffic, so a mutex is
// acceptable here; the packet path never touches an MPSC ring.
type MPSC struct {
	mu    sync.Mutex
	items []any
	cap   int
}

// NewMPSC returns a control ring holding at most capacity messages.
func NewMPSC(capacity int) *MPSC {
	if capacity < 1 {
		capacity = 1
	}
	return &MPSC{cap: capacity}
}

// Push appends m; it returns an error when the ring is full so callers can
// surface back-pressure instead of blocking the data plane.
func (r *MPSC) Push(m any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.items) >= r.cap {
		return fmt.Errorf("ring: control queue full (cap %d)", r.cap)
	}
	r.items = append(r.items, m)
	return nil
}

// Pop removes and returns the oldest message, or (nil, false) when empty.
func (r *MPSC) Pop() (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.items) == 0 {
		return nil, false
	}
	m := r.items[0]
	copy(r.items, r.items[1:])
	r.items = r.items[:len(r.items)-1]
	return m, true
}
