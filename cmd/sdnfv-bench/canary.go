package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The canary is a frozen reference run between rounds: two goroutines
// pass 64-byte items through the small single-producer single-consumer
// ring below. The ring is the harness's own on purpose — internal/ring is
// code under test and later changes may speed it up, while the canary
// must cost the same for as long as the machine behaves the same. Cross-
// core hand-off is also what a plain arithmetic loop does not see and
// what this machine's speed modes change. The canary never adjusts or
// filters a metric; it only lets a reader tell machine drift from code
// drift.
const (
	canarySlots = 256
	canaryRun   = 30 * time.Millisecond
	// canaryWarn is the within-run quartile spread of the canary above
	// which a run prints a warning. Cross-core hand-off on the two-core
	// baseline machine varies by 0.06-0.20 from one 30 ms window to the
	// next even when nothing else runs, so the line sits above that.
	canaryWarn = 0.30
)

type canaryRing struct {
	slots [canarySlots][64]byte
	_     [64]byte
	head  atomic.Uint64 // written by the producer
	_     [56]byte
	tail  atomic.Uint64 // written by the consumer
}

// runCanary returns nanoseconds per item handed across for one run.
func runCanary() float64 {
	var r canaryRing
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var item [64]byte
		for !stop.Load() {
			h := r.head.Load()
			if h-r.tail.Load() == canarySlots {
				runtime.Gosched()
				continue
			}
			item[0]++
			r.slots[h%canarySlots] = item
			r.head.Store(h + 1)
		}
	}()
	var got uint64
	var item [64]byte
	start := time.Now()
	for {
		t := r.tail.Load()
		if t == r.head.Load() {
			runtime.Gosched()
		} else {
			item = r.slots[t%canarySlots]
			r.tail.Store(t + 1)
			got++
		}
		if got%1024 == 0 && time.Since(start) >= canaryRun {
			break
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	<-done
	probeSink += uint64(item[0])
	return float64(elapsed) / float64(max(got, 1))
}
