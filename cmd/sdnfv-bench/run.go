package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/flowtable"
)

// shape is how long one pass measures. A workload's untraced run is
// `passes` passes of this shape; the traced run adds one traced pass.
type shape struct {
	passes int
	rounds int           // closed-loop rounds per pass
	round  time.Duration // length of one round
	open   time.Duration // open-loop phase per pass
}

const untracedPasses = 3

// shapeFor splits the measuring time over the passes: five eighths of a
// pass go to one-second closed-loop rounds, the rest to the open-loop
// phase (24 s gives 3 x (5 x 1 s + 3 s), 39 s gives 3 x (8 x 1 s + 5 s)).
// Rounds are never shortened to fit; a smaller budget buys fewer of them.
func shapeFor(seconds int) shape {
	per := max(seconds/untracedPasses, 2)
	rounds := max((per*5+4)/8, 1)
	return shape{
		passes: untracedPasses, rounds: rounds, round: time.Second,
		open: time.Duration(max(per-rounds, 1)) * time.Second,
	}
}

// Counters sampled around the measured phases; a pass keeps the sum of
// the deltas.
const (
	cWallNs = iota
	cCPUNs
	cOffered
	cDelivered
	cRx
	cMisses
	cDrops
	cOverflows
	cTxDrops
	cRxDrops
	cAllocFails
	cEvictions
	cExpiredLookups
	cSweepNs
	cPortRxFrames
	cPortTxFrames
	cPortTxDrops
	cCtlRequests
	cCtlRejected
	cCtlFlowMods
	cNoticesRefused
	cMallocs
	cGCCycles
	cGCPauseNs
	nCounters
)

type counterSet [nCounters]float64

func (c *counterSet) addDelta(after, before counterSet) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// snapshot reads every counter the per-layer metrics are deltas of.
func (s *system) snapshot(offered uint64) (counterSet, error) {
	var c counterSet
	c[cWallNs] = float64(s.out.now())
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c[cCPUNs] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	c[cOffered] = float64(offered)
	c[cDelivered] = float64(s.out.delivered.Load())
	st := s.host.Stats()
	c[cRx], c[cMisses] = float64(st.RxPackets), float64(st.Misses)
	c[cDrops], c[cOverflows] = float64(st.Drops), float64(st.Overflows)
	c[cTxDrops], c[cRxDrops] = float64(st.TxDrops), float64(st.RxDrops)
	c[cAllocFails] = float64(st.Pool.AllocFails)
	c[cEvictions] = float64(st.Table.Evicted())
	c[cExpiredLookups] = float64(st.Table.ExpiredLookups)
	c[cSweepNs] = float64(st.Table.SweepNanos)
	for _, p := range st.Ports {
		c[cPortRxFrames] += float64(p.RxFrames)
		c[cPortTxFrames] += float64(p.TxFrames)
		c[cPortTxDrops] += float64(p.TxDrops)
	}
	if s.ctl != nil {
		cs, err := s.ctl.Stats(context.Background())
		if err != nil {
			return c, fmt.Errorf("controller stats: %w", err)
		}
		c[cCtlRequests], c[cCtlRejected], c[cCtlFlowMods] = float64(cs.Requests), float64(cs.Rejected), float64(cs.FlowMods)
		c[cNoticesRefused] = float64(s.notice.refused.Load())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cGCCycles], c[cGCPauseNs] = float64(ms.Mallocs), float64(ms.NumGC), float64(ms.PauseTotalNs)
	return c, nil
}

// pass is everything one boot-to-stop run of a workload measured.
type pass struct {
	setupS float64
	rates  []float64 // delivered frames per second, one per closed-loop round
	p50us  []float64 // open-loop latency from due time: exact p50 of each second of the phase
	p99us  float64   // over the whole phase
	lateUs float64   // p99 of how late the open-loop generator sent a burst
	heapMB float64
	// heapTableB is heap growth from the booted host with an empty table
	// to the loaded system: what the rules (and little else) cost.
	heapTableB float64
	rules      int
	counters   counterSet
	offered    uint64 // over all phases, warm-up included
	delivered  uint64
	refused    uint64
	canary     []float64
	depthSum   float64
	depthN     float64
	inUsePeak  float64
	serviceNs  float64
	tr         *tracer

	// What the table probes need once the system is stopped.
	table *flowtable.Table
	fresh uint64
	app   *app.App
}

func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// heapLoaded is the live heap of the loaded system: the lowest of a few
// collections spaced off the sweeper's beat, because a sweep or install
// caught half-way holds a second copy of the map it is rebuilding.
func heapLoaded() float64 {
	lowest := heapAlloc()
	for i := 0; i < 4; i++ {
		time.Sleep(37 * time.Millisecond)
		lowest = min(lowest, heapAlloc())
	}
	return lowest
}

// runPass boots the workload, warms it up, measures the closed-loop
// rounds and the open-loop phase, and stops it, checking the books at
// every step. Any failed check is an error: the run prints no metrics.
func runPass(w *workload, seed uint64, sh shape, traced bool) (*pass, error) {
	p := &pass{}
	if traced {
		p.tr = newTracer()
	}
	runtime.GC() // the previous pass's garbage is not part of this set-up
	setupStart := time.Now()
	src, err := newSource(w, seed)
	if err != nil {
		return nil, err
	}
	latCap := int(sh.open.Seconds()*float64(w.openPPS)) + burstSize
	sys, err := boot(w, seed, p.tr, latCap)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	src.table, src.ephAction = sys.host.Table(), flowtable.Forward(svcFirewall)
	gen := &generator{t: sys, src: src, now: sys.out.now, window: w.window, drain: drainLimit}
	gen.sample = func() {
		for _, in := range sys.insts {
			p.depthSum += float64(in.Stats().QueueDepth)
		}
		p.depthN++
		p.inUsePeak = max(p.inUsePeak, float64(sys.host.Pool().Stats().InUse))
	}

	account := func(name string, ph phase, exact bool) error {
		p.offered += ph.offered
		p.delivered += ph.delivered
		if ph.short {
			return fmt.Errorf("%s: %d of %d frames unaccounted for after %s", name, ph.offered-ph.delivered, ph.offered, drainLimit)
		}
		if exact && ph.delivered != ph.offered {
			return fmt.Errorf("%s: delivered %d of %d offered frames", name, ph.delivered, ph.offered)
		}
		return nil
	}

	warm, err := gen.closed(uint64(w.warmup), 0)
	if err != nil {
		return nil, err
	}
	if err := account("warm-up", warm, true); err != nil {
		return nil, err
	}
	runtime.GC()
	p.setupS = time.Since(setupStart).Seconds()

	measure := func(run func() error) error {
		before, err := sys.snapshot(p.offered)
		if err != nil {
			return err
		}
		if err := run(); err != nil {
			return err
		}
		after, err := sys.snapshot(p.offered)
		if err != nil {
			return err
		}
		p.counters.addDelta(after, before)
		return nil
	}

	for r := 0; r < sh.rounds; r++ {
		p.canary = append(p.canary, runCanary())
		err := measure(func() error {
			ph, err := gen.closed(0, sh.round)
			if err != nil {
				return err
			}
			p.rates = append(p.rates, float64(ph.delivered)/(float64(ph.wallNs)/1e9))
			return account(fmt.Sprintf("round %d", r+1), ph, true)
		})
		if err != nil {
			return nil, err
		}
	}

	runtime.GC()
	p.canary = append(p.canary, runCanary())
	var open phase
	err = measure(func() (err error) {
		sys.out.n = 0
		sys.out.recording.Store(true)
		defer sys.out.recording.Store(false)
		if open, err = gen.open(w.openPPS, w.openBurst, sh.open); err != nil {
			return err
		}
		return account("open loop", open, false)
	})
	if err != nil {
		return nil, err
	}
	// One exact p50 per second of the phase, in arrival order, as the
	// closed loop gives one rate per second: the median over them shrugs
	// off a second the machine spent elsewhere.
	lat := sys.out.lat[:sys.out.n]
	secs := int(sh.open / time.Second)
	for i := 0; i < secs; i++ {
		second := lat[i*len(lat)/secs : (i+1)*len(lat)/secs]
		slices.Sort(second)
		p.p50us = append(p.p50us, float64(quantile(second, 0.50))/1e3)
	}
	slices.Sort(lat)
	p.p99us = float64(quantile(lat, 0.99)) / 1e3
	slices.Sort(open.lateness)
	p.lateUs = float64(quantile(open.lateness, 0.99)) / 1e3

	// Memory with the system still loaded: rules installed, rings and
	// pool allocated, frames built.
	loaded := heapLoaded()
	p.heapMB = loaded / (1 << 20)
	p.rules = sys.host.Stats().Table.Rules
	p.heapTableB = loaded - sys.heapBooted
	for _, in := range sys.insts {
		p.serviceNs += in.Stats().ServiceTimeNs
	}
	p.refused = sys.refused
	if traced {
		// Only the traced pass is probed afterwards; keeping an untraced
		// pass's table alive would inflate the next pass's heap.
		p.table, p.fresh, p.app = sys.host.Table(), src.fresh, sys.app
	}

	if err := sys.verify(p); err != nil {
		return nil, err
	}
	return p, nil
}

// verify is the correctness gate, run after every pass with the system
// drained and then stopped. It returns the first broken invariant.
func (s *system) verify(p *pass) error {
	if err := s.quiesce(); err != nil {
		return err
	}
	// Stopping the host stops the sweeper: no eviction can follow, so the
	// notices the application has received can be compared exactly.
	s.host.Stop()
	st := s.host.Stats()
	if st.RxPackets != st.TxPackets+st.Drops+st.Overflows+st.TxDrops+st.RxDrops {
		return fmt.Errorf("conservation broken: rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d",
			st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops)
	}
	if t := st.Table; t.Adds != uint64(t.Rules)+t.Deleted+t.Evicted() {
		return fmt.Errorf("table lifecycle broken: adds=%d rules=%d deleted=%d evicted=%d", t.Adds, t.Rules, t.Deleted, t.Evicted())
	}
	if st.ReleaseErrs != 0 {
		return fmt.Errorf("%d buffer release errors", st.ReleaseErrs)
	}
	if st.Pool.InUse != 0 {
		return fmt.Errorf("%d pool buffers still in use after drain", st.Pool.InUse)
	}
	if bad := s.out.bad.Load(); bad != 0 {
		return fmt.Errorf("%d delivered frames did not carry the magic and timestamp they were sent with", bad)
	}
	if s.ctl == nil {
		return nil
	}
	cs, err := s.ctl.Stats(context.Background())
	if err != nil {
		return err
	}
	if taken := p.offered - s.refused; cs.Requests != taken || cs.Rejected != 0 {
		return fmt.Errorf("controller saw %d requests (%d rejected) for %d flows offered", cs.Requests, cs.Rejected, taken)
	}
	// Flow-removed notices cross the TCP channel asynchronously. Each
	// eviction must reach the application exactly once, unless the channel
	// refused the batch it was in (counted in control.notices_refused).
	deadline := time.Now().Add(drainLimit)
	for s.app.FlowsRemoved()+s.notice.refused.Load() != st.Table.Evicted() {
		if time.Now().After(deadline) {
			return fmt.Errorf("application got %d flow-removed notices (%d more refused by the channel) for %d evictions",
				s.app.FlowsRemoved(), s.notice.refused.Load(), st.Table.Evicted())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
