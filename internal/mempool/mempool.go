// Package mempool implements the shared packet-buffer pool that stands in
// for DPDK's huge-page memory (§4.1 of the paper).
//
// Packets are DMA'd (here: written once by the traffic source) into
// fixed-size buffers that live for the packet's entire traversal of the
// host. NFs and manager threads exchange only small descriptor handles
// through ring buffers; the buffer itself is never copied. A descriptor
// carries a generation tag so that stale handles (use-after-free) are
// detected rather than silently corrupting a recycled buffer.
//
// Parallel packet processing (§4.2) is supported by an atomic reference
// count per buffer: the RX thread increments the count by the
// parallelization factor before fanning a descriptor out to multiple NFs,
// and the buffer returns to the free list only when the last holder
// releases it.
package mempool

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Handle identifies one packet buffer in a Pool. The low 32 bits are the
// buffer index, the high 32 bits a generation counter incremented on every
// free. A Handle is what flows through the SPSC rings as a uint64.
type Handle uint64

// NilHandle is the zero Handle; it never refers to a live buffer.
const NilHandle Handle = 0

const (
	indexBits = 32
	indexMask = (1 << indexBits) - 1
)

//sdnfv:hotpath
func makeHandle(index uint32, gen uint32) Handle {
	// Generation 0 is reserved so that NilHandle (0,0) is never valid.
	return Handle(uint64(gen)<<indexBits | uint64(index))
}

// Index returns the buffer slot this handle refers to.
//
//sdnfv:hotpath
func (h Handle) Index() uint32 { return uint32(uint64(h) & indexMask) }

// Generation returns the allocation generation of this handle.
//
//sdnfv:hotpath
func (h Handle) Generation() uint32 { return uint32(uint64(h) >> indexBits) }

// Errors returned by Pool operations.
var (
	ErrExhausted   = errors.New("mempool: pool exhausted")
	ErrStaleHandle = errors.New("mempool: stale handle (buffer was freed)")
	ErrDoubleFree  = errors.New("mempool: release of unreferenced buffer")
	// ErrInvalidHandle reports a handle whose index is out of range (or
	// the nil handle). Plain sentinels, not wrapped fmt errors: these
	// are returned on the packet path, which must not allocate.
	ErrInvalidHandle = errors.New("mempool: invalid handle")
	// ErrBadLength reports a SetLength outside [0, BufSize].
	ErrBadLength = errors.New("mempool: length out of range")
	// ErrBadDelta reports a non-positive Retain delta.
	ErrBadDelta = errors.New("mempool: non-positive retain delta")
)

type slot struct {
	gen    atomic.Uint32
	refcnt atomic.Int32
	length atomic.Int32 // bytes of valid data in buf
}

// Pool is a fixed-size packet buffer pool. All methods are safe for
// concurrent use; the free list is a lock-free Treiber stack encoded as
// indices with an ABA-safe version counter.
type Pool struct {
	bufSize int
	bufs    [][]byte
	slots   []slot

	// free list: head packs (version<<32 | index+1); 0 means empty.
	freeHead atomic.Uint64
	next     []atomic.Uint32 // next[i] = index+1 of next free slot, 0 = end

	allocs atomic.Uint64
	frees  atomic.Uint64
	fails  atomic.Uint64
}

// New creates a pool of n buffers of bufSize bytes each. It panics only on
// programmer error (non-positive sizes), matching make's behaviour.
func New(n, bufSize int) *Pool {
	if n <= 0 || bufSize <= 0 {
		panic(fmt.Sprintf("mempool: invalid pool dimensions n=%d bufSize=%d", n, bufSize))
	}
	p := &Pool{
		bufSize: bufSize,
		bufs:    make([][]byte, n),
		slots:   make([]slot, n),
		next:    make([]atomic.Uint32, n),
	}
	// One backing array, sliced per buffer, mirroring a huge-page region.
	backing := make([]byte, n*bufSize)
	for i := 0; i < n; i++ {
		p.bufs[i] = backing[i*bufSize : (i+1)*bufSize : (i+1)*bufSize]
		p.slots[i].gen.Store(1)
		if i+1 < n {
			p.next[i].Store(uint32(i + 2))
		}
	}
	p.freeHead.Store(1) // index 0, +1 encoding, version 0
	return p
}

// Alloc takes a buffer from the pool with refcount 1. It returns
// ErrExhausted when no buffers are free (the caller should drop the packet,
// as a NIC would on descriptor exhaustion).
//
//sdnfv:hotpath
func (p *Pool) Alloc() (Handle, error) {
	for {
		old := p.freeHead.Load()
		idx1 := uint32(old & indexMask)
		if idx1 == 0 {
			p.fails.Add(1)
			return NilHandle, ErrExhausted
		}
		i := idx1 - 1
		nxt := p.next[i].Load()
		ver := old >> indexBits
		newHead := (ver+1)<<indexBits | uint64(nxt)
		if p.freeHead.CompareAndSwap(old, newHead) {
			s := &p.slots[i]
			s.refcnt.Store(1)
			s.length.Store(0)
			p.allocs.Add(1)
			return makeHandle(i, s.gen.Load()), nil
		}
	}
}

// check validates h and returns its slot index.
//
//sdnfv:hotpath
func (p *Pool) check(h Handle) (uint32, error) {
	i := h.Index()
	if int(i) >= len(p.slots) || h == NilHandle {
		return 0, ErrInvalidHandle
	}
	if p.slots[i].gen.Load() != h.Generation() {
		return 0, ErrStaleHandle
	}
	return i, nil
}

// Buf returns the packet buffer for h. The slice aliases pool memory; it is
// valid until the last Release of h.
//
//sdnfv:hotpath
func (p *Pool) Buf(h Handle) ([]byte, error) {
	i, err := p.check(h)
	if err != nil {
		return nil, err
	}
	return p.bufs[i], nil
}

// Data returns the valid bytes of the packet (Buf truncated to its length).
//
//sdnfv:hotpath
func (p *Pool) Data(h Handle) ([]byte, error) {
	i, err := p.check(h)
	if err != nil {
		return nil, err
	}
	return p.bufs[i][:p.slots[i].length.Load()], nil
}

// SetLength records the number of valid bytes in the buffer.
//
//sdnfv:hotpath
func (p *Pool) SetLength(h Handle, n int) error {
	i, err := p.check(h)
	if err != nil {
		return err
	}
	if n < 0 || n > p.bufSize {
		return ErrBadLength
	}
	p.slots[i].length.Store(int32(n))
	return nil
}

// Retain increments the reference count by delta (the "parallelization
// factor" of §4.2). The buffer must be live.
//
//sdnfv:hotpath
func (p *Pool) Retain(h Handle, delta int) error {
	i, err := p.check(h)
	if err != nil {
		return err
	}
	if delta <= 0 {
		return ErrBadDelta
	}
	p.slots[i].refcnt.Add(int32(delta))
	return nil
}

// RefCount reports the current reference count (diagnostics only).
func (p *Pool) RefCount(h Handle) (int, error) {
	i, err := p.check(h)
	if err != nil {
		return 0, err
	}
	return int(p.slots[i].refcnt.Load()), nil
}

// Release drops one reference. When the count reaches zero the buffer's
// generation advances (invalidating all outstanding handles) and the slot
// returns to the free list.
//
//sdnfv:hotpath
func (p *Pool) Release(h Handle) error {
	i, err := p.check(h)
	if err != nil {
		return err
	}
	s := &p.slots[i]
	n := s.refcnt.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		s.refcnt.Add(1) // undo; report the bug
		return ErrDoubleFree
	}
	s.gen.Add(1)
	if s.gen.Load() == 0 { // skip reserved generation 0 on wrap
		s.gen.Add(1)
	}
	for {
		old := p.freeHead.Load()
		p.next[i].Store(uint32(old & indexMask))
		ver := old >> indexBits
		newHead := (ver+1)<<indexBits | uint64(i+1)
		if p.freeHead.CompareAndSwap(old, newHead) {
			p.frees.Add(1)
			return nil
		}
	}
}

// Stats reports cumulative pool activity.
type Stats struct {
	Allocs     uint64 `metric:"allocs_total" help:"Buffer pool allocations."`
	Frees      uint64 `metric:"frees_total" help:"Buffer pool releases."`
	AllocFails uint64 `metric:"alloc_fails_total" help:"Buffer pool allocation failures (pool exhausted)."`
	InUse      int    `metric:"in_use" help:"Buffers currently allocated from the pool."`
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats {
	a, f := p.allocs.Load(), p.frees.Load()
	return Stats{
		Allocs:     a,
		Frees:      f,
		AllocFails: p.fails.Load(),
		InUse:      int(a - f),
	}
}
