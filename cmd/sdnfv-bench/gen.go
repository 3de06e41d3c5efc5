package main

import (
	"runtime"
	"time"
)

// target is what the generator drives: the booted system, or a fake in
// the unit tests.
type target interface {
	// offer hands over one burst and returns how many frames were taken.
	offer(frames [][]byte) int
	// deliveredCount is the number of frames seen at the egress so far.
	deliveredCount() uint64
	// lost is the number of frames the program says it dropped so far.
	// It may be slow; the generator asks only when deliveries stall.
	lost() uint64
}

func (s *system) deliveredCount() uint64 { return s.out.delivered.Load() }

const (
	// stallCheck is how long deliveries may stand still before the
	// generator asks the program what it dropped: waiting on deliveries
	// alone would hang once a ring has overflowed.
	stallCheck = 10 * time.Millisecond
	// drainLimit bounds the wait for the last frames of a phase.
	drainLimit = 2 * time.Second
	// sampleBursts is how often (in bursts sent) queue depths are sampled.
	sampleBursts = 64
)

// phase is what one warm-up, closed-loop round or open-loop phase did.
type phase struct {
	offered   uint64 // frames generated; a frame the ingress refused is offered and failed
	delivered uint64
	wallNs    int64 // first send to last delivery
	short     bool  // the drain deadline passed with frames unaccounted for
	lateness  []int64
}

// schedule is the open-loop timetable: burst k is due at
// start + k*interval, whatever happened to the bursts before it.
type schedule struct {
	start, interval int64
	k               int64
}

// next decides whether burst k goes out at time now. It goes when it is
// due and the in-flight cap has room; it is then stamped with its due
// time, not the send time, so a stall shows as latency on every frame it
// delayed, and late says how far behind the generator ran.
func (s *schedule) next(now int64, room bool) (due, late int64, ok bool) {
	due = s.start + s.k*s.interval
	if now < due || !room {
		return due, 0, false
	}
	s.k++
	return due, now - due, true
}

// settler tracks how many sent frames are accounted for: delivered, or
// counted as dropped by the program.
type settler struct {
	t         target
	baseDone  uint64
	baseLost  uint64
	lost      uint64
	lastDone  uint64
	lastMoved int64 // last delivery, or last time the program was asked for its drops
	lastAlive int64 // last delivery or send: the generator gives up drain after this
}

func newSettler(t target, now int64) *settler {
	return &settler{t: t, baseDone: t.deliveredCount(), baseLost: t.lost(), lastMoved: now, lastAlive: now}
}

// settled returns delivered + lost since the phase began. The lost half
// is refreshed only after deliveries have stood still for stallCheck.
func (s *settler) settled(now int64) (delivered, total uint64) {
	done := s.t.deliveredCount() - s.baseDone
	switch {
	case done != s.lastDone:
		s.lastDone, s.lastMoved, s.lastAlive = done, now, now
	case now-s.lastMoved > int64(stallCheck):
		s.lost = s.t.lost() - s.baseLost
		s.lastMoved = now
	}
	return done, done + s.lost
}

type generator struct {
	t      target
	src    *source
	now    func() int64
	window int
	drain  time.Duration
	sample func() // optional: called every sampleBursts bursts
	idle   int    // consecutive waits without a send
}

const (
	// yieldsBeforeSleep is how many times a waiting generator yields
	// before it starts sleeping. Yielding keeps a short wait short; but a
	// goroutine that only ever yields keeps its processor from going idle,
	// and on a two-core box it is idle processors that poll the network,
	// so a long wait (a socket round trip, a distant due time) must sleep.
	yieldsBeforeSleep = 256
	napTime           = 20 * time.Microsecond
	// spinAhead is how close to a due time the open loop stops sleeping
	// and yields instead, so that timer granularity does not show up as
	// lateness.
	spinAhead = 500 * time.Microsecond
)

// wait gives the processor away while there is nothing to send. until is
// the time the generator next has something to do, 0 when it is waiting
// for deliveries and cannot know.
func (g *generator) wait(now, until int64) {
	g.idle++
	switch {
	case until-now > int64(spinAhead):
		time.Sleep(time.Duration(until-now) - spinAhead)
	case until == 0 && g.idle > yieldsBeforeSleep:
		time.Sleep(napTime)
	default:
		runtime.Gosched()
	}
}

// closed sends with at most window frames in flight, the next burst only
// as deliveries return, until count frames are out (count > 0) or dur
// has passed, then waits for the tail.
func (g *generator) closed(count uint64, dur time.Duration) (phase, error) {
	var p phase
	start := g.now()
	st := newSettler(g.t, start)
	var sent uint64
	for bursts := 0; ; {
		now := g.now()
		_, settled := st.settled(now)
		if int(sent-settled)+burstSize > g.window {
			if now-st.lastAlive > int64(g.drain) {
				break // nothing is coming back; finish reports the shortfall
			}
			g.wait(now, 0)
			continue
		}
		if (count > 0 && p.offered >= count) || (count == 0 && now-start >= int64(dur)) {
			break
		}
		frames, err := g.src.next(now, burstSize)
		if err != nil {
			return p, err
		}
		sent += uint64(g.t.offer(frames))
		p.offered += uint64(len(frames))
		st.lastAlive, g.idle = now, 0
		if bursts++; g.sample != nil && bursts%sampleBursts == 0 {
			g.sample()
		}
	}
	g.finish(&p, st, start, sent)
	return p, nil
}

// open sends burst frames at a time on a fixed timetable, pps frames per
// second for dur, each frame stamped with the time it was due.
func (g *generator) open(pps, burst int, dur time.Duration) (phase, error) {
	var p phase
	interval := int64(burst) * int64(time.Second) / int64(pps)
	total := int64(dur) / interval
	p.lateness = make([]int64, 0, total)
	start := g.now()
	st := newSettler(g.t, start)
	sch := schedule{start: start, interval: interval}
	var sent uint64
	for sch.k < total {
		now := g.now()
		_, settled := st.settled(now)
		due, late, ok := sch.next(now, int(sent-settled)+burst <= g.window)
		if !ok {
			if now-st.lastAlive > int64(g.drain) && now > due {
				break
			}
			if now < due {
				g.wait(now, due)
			} else {
				g.wait(now, 0)
			}
			continue
		}
		frames, err := g.src.next(due, burst)
		if err != nil {
			return p, err
		}
		sent += uint64(g.t.offer(frames))
		p.offered += uint64(len(frames))
		p.lateness = append(p.lateness, late)
		st.lastAlive, g.idle = now, 0
		if g.sample != nil && sch.k%sampleBursts == 0 {
			g.sample()
		}
	}
	g.finish(&p, st, start, sent)
	return p, nil
}

// finish waits until every frame the ingress took is delivered or
// counted as dropped, or the drain deadline passes.
func (g *generator) finish(p *phase, st *settler, start int64, sent uint64) {
	deadline := g.now() + int64(g.drain)
	for {
		now := g.now()
		delivered, settled := st.settled(now)
		if settled >= sent || now > deadline {
			p.delivered = delivered
			p.short = settled < sent
			p.wallNs = st.lastAlive - start
			return
		}
		runtime.Gosched()
	}
}
