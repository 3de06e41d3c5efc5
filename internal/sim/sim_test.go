package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	env := NewEnv(1)
	var order []int
	env.Schedule(3, func() { order = append(order, 3) })
	env.Schedule(1, func() { order = append(order, 1) })
	env.Schedule(2, func() { order = append(order, 2) })
	env.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if env.Now() != 10 {
		t.Fatalf("Now = %v", env.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Schedule(1, func() { order = append(order, i) })
	}
	env.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestRunUntilBoundary(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	env.Schedule(5, func() { fired++ })
	env.Schedule(15, func() { fired++ })
	n := env.Run(10)
	if n != 1 || fired != 1 {
		t.Fatalf("processed %d fired %d", n, fired)
	}
	if len(env.events) != 1 {
		t.Fatalf("pending = %d", len(env.events))
	}
	env.Run(20)
	if fired != 2 {
		t.Fatal("second event never fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	env := NewEnv(1)
	var times []Time
	env.Schedule(1, func() {
		times = append(times, env.Now())
		env.Schedule(1, func() {
			times = append(times, env.Now())
		})
	})
	env.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

func TestEvery(t *testing.T) {
	env := NewEnv(1)
	count := 0
	env.Every(1, func() bool {
		count++
		return count < 5
	})
	env.Run(100)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		env := NewEnv(42)
		var samples []float64
		for i := 0; i < 100; i++ {
			env.Schedule(env.Exp(1.0), func() {
				samples = append(samples, env.Now())
			})
		}
		env.Run(1000)
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in nondecreasing time order.
func TestMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		env := NewEnv(7)
		last := -1.0
		okOrder := true
		for _, d := range delays {
			env.Schedule(float64(d)/100, func() {
				if env.Now() < last {
					okOrder = false
				}
				last = env.Now()
			})
		}
		env.Run(1e6)
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue(env, 0)
	var done []int
	for i := 0; i < 3; i++ {
		i := i
		q.Offer(1.0, func() { done = append(done, i) })
	}
	env.Run(10)
	if len(done) != 3 || done[0] != 0 || done[2] != 2 {
		t.Fatalf("done = %v", done)
	}
	if q.Served != 3 {
		t.Fatalf("served = %d", q.Served)
	}
}

func TestQueueCapacityDrops(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue(env, 2)
	accepted := 0
	for i := 0; i < 5; i++ {
		if q.Offer(1.0, nil) {
			accepted++
		}
	}
	// 1 in service + 2 waiting = 3 accepted.
	if accepted != 3 || q.Dropped != 2 {
		t.Fatalf("accepted=%d dropped=%d", accepted, q.Dropped)
	}
	env.Run(10)
	if q.Served != 3 {
		t.Fatalf("served = %d", q.Served)
	}
}

func TestQueueBackToBackServes(t *testing.T) {
	// Jobs offered while busy must start exactly when the server frees.
	env := NewEnv(1)
	q := NewQueue(env, 0)
	var t2 Time
	q.Offer(2.0, nil)
	q.Offer(3.0, func() { t2 = env.Now() })
	env.Run(10)
	if t2 != 5.0 {
		t.Fatalf("second completion at %v, want 5", t2)
	}
}

func TestRandHelpers(t *testing.T) {
	env := NewEnv(3)
	if v := env.Exp(0); v != 0 {
		t.Fatal("Exp(0) should be 0")
	}
	sum := 0.0
	for i := 0; i < 1000; i++ {
		v := env.Exp(2)
		if v < 0 {
			t.Fatalf("Exp drew a negative delay: %v", v)
		}
		sum += v
	}
	if mean := sum / 1000; mean < 1.7 || mean > 2.3 {
		t.Fatalf("Exp(2) sample mean = %v", mean)
	}
}
