// Package sim is a deterministic discrete-event simulation core. The
// time-series and saturation experiments of the paper (Figs. 1, 8–12) run
// minutes of traffic through multi-host topologies; replaying them in
// virtual time keeps the reproduction fast and bit-for-bit repeatable
// under a fixed seed.
//
// The core is a binary-heap event queue with a virtual clock. Events
// scheduled for the same instant fire in scheduling order (a monotone
// sequence number breaks ties), which the determinism property tests rely
// on.
//
// Env's Now and After make it the clock the figures hand to the
// orchestrator and to the real NFs (orchestrator.Clock, and the Now
// field of the time-windowed NFs), so those run unchanged on virtual
// time.
//
// On top of the core sit models of the network elements around the SDNFV
// data plane, which the saturation and time-series runners compose:
// links with serialization and propagation delay (Link), an OVS-like
// software switch that punts flow-table misses to the controller
// (OVSSwitch), a single-threaded SDN controller (ControllerModel),
// constant-bit-rate sources and latency-recording sinks. Their packets
// are lightweight records (Packet); service-time parameters are
// calibrated from the real engine's micro-benchmarks so relative costs
// match (see EXPERIMENTS.md).
package sim

import (
	"container/heap"
	"math/rand"
)

// Time is simulation time in seconds.
type Time = float64

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Env is a simulation environment: a virtual clock, an event queue, and a
// seeded random source. Not safe for concurrent use — the simulation is
// single-threaded by design (determinism).
type Env struct {
	now    Time
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// NewEnv returns an environment starting at t=0 with the given RNG seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's seeded random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// After runs fn after delay seconds (delay < 0 is clamped to 0).
func (e *Env) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, &event{at: e.now + delay, seq: e.seq, fn: fn})
}

// At runs fn at absolute time t (clamped to now).
func (e *Env) At(t Time, fn func()) {
	e.After(t-e.now, fn)
}

// Every runs fn at the given period starting after one period, until the
// simulation ends or fn returns false.
func (e *Env) Every(period Time, fn func() bool) {
	if period <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
}

// Run processes events until the queue is empty or virtual time would
// exceed until. It returns the number of events processed.
func (e *Env) Run(until Time) uint64 {
	var n uint64
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.events)
		if next.at > e.now {
			e.now = next.at
		}
		next.fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Exp draws an exponentially distributed delay with the given mean.
func (e *Env) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return e.rng.ExpFloat64() * mean
}

// Queue is a FIFO server with a fixed service rate, modeling an NF or link
// as a fluid/packet hybrid: jobs are discrete, service times deterministic
// or caller-supplied. It counts served jobs, and drops when bounded.
type Queue struct {
	env *Env
	// Capacity is the maximum number of queued jobs (0 = unbounded).
	Capacity int
	// busy marks the server occupied.
	busy bool
	wait []*job

	// Served and Dropped count completed and rejected jobs.
	Served  uint64
	Dropped uint64
}

type job struct {
	service Time
	done    func()
}

// NewQueue returns a queue bound to env.
func NewQueue(env *Env, capacity int) *Queue {
	return &Queue{env: env, Capacity: capacity}
}

// Offer submits a job with the given service time; done (may be nil) runs
// at completion. It returns false when the queue is full (job dropped).
func (q *Queue) Offer(service Time, done func()) bool {
	if q.Capacity > 0 && len(q.wait) >= q.Capacity {
		q.Dropped++
		return false
	}
	j := &job{service: service, done: done}
	if !q.busy {
		q.start(j)
	} else {
		q.wait = append(q.wait, j)
	}
	return true
}

func (q *Queue) start(j *job) {
	q.busy = true
	q.env.After(j.service, func() {
		q.Served++
		if j.done != nil {
			j.done()
		}
		if len(q.wait) > 0 {
			next := q.wait[0]
			copy(q.wait, q.wait[1:])
			q.wait = q.wait[:len(q.wait)-1]
			q.start(next)
		} else {
			q.busy = false
		}
	})
}
