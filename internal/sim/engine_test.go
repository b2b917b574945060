package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending schedule order", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.At(100, func() {
		e.At(10, func() { at = e.Now() }) // in the past
	})
	e.RunAll()
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.At(10, func() { fired = true })
	e.Cancel(id)
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling again must not panic.
	e.Cancel(id)
	e.Cancel(EventID{})
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run(25)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want 25 (advanced to deadline)", e.Now())
	}
	e.Run(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want all 4 after second Run", fired)
	}
}

func TestRunFiresEventExactlyAtDeadline(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(25, func() { fired = true })
	e.Run(25)
	if !fired {
		t.Fatal("event at deadline did not fire")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.RunAll()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.At(50, func() {
		e.After(-10, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 50 {
		t.Fatalf("negative After fired at %v, want 50", at)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Fatalf("Seconds() = %v, want 0.5", got)
	}
	if got := (2 * Microsecond).Micros(); got != 2 {
		t.Fatalf("Micros() = %v, want 2", got)
	}
}

func TestCancelAfterFireIsInert(t *testing.T) {
	// Regression test for the pooled free list: an EventID retained past
	// its event's firing must not cancel the event that reuses the struct.
	e := NewEngine(1)
	stale := e.At(5, func() {})
	e.RunAll() // fires and recycles the event struct

	fired := false
	fresh := e.At(7, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Skip("free list did not reuse the struct; nothing to regress")
	}
	e.Cancel(stale) // stale generation: must be a no-op
	e.RunAll()
	if !fired {
		t.Fatal("stale Cancel killed a later event reusing the pooled struct")
	}
}

func TestCancelAfterCancelIsInert(t *testing.T) {
	// Same property for the cancel path: a cancelled (never fired) event is
	// recycled when popped, and its old ID must then be inert.
	e := NewEngine(1)
	stale := e.At(5, func() {})
	e.Cancel(stale)
	e.RunAll() // pops the dead event and recycles it

	fired := false
	fresh := e.At(7, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Skip("free list did not reuse the struct; nothing to regress")
	}
	e.Cancel(stale)
	e.RunAll()
	if !fired {
		t.Fatal("doubly-cancelled ID killed a later event reusing the struct")
	}
}

// FuzzEngineFiringOrder drives random At/AtStamped/Cancel/Step sequences
// and checks the engine against a sort-based oracle: every Step must fire
// the earliest live event by (at, sched, seq), with the engine's clamping
// rules applied to the scheduled time and stamp. After every pop the heap
// storage beyond its length must hold no event pointer, so a recycled
// event is reachable only through the free list.
func FuzzEngineFiringOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 5, 9, 3, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type rec struct {
			at, sched Time
			seq       int
			id        EventID
			dead      bool
		}
		e := NewEngine(1)
		var pending []*rec
		var all []*rec
		fired := -1
		schedule := func(t0, stamp Time, stamped bool) {
			r := &rec{seq: len(all)}
			n := len(all)
			fn := func() { fired = n }
			if stamped {
				r.id = e.AtStamped(t0, stamp, fn)
			} else {
				r.id = e.At(t0, fn)
				stamp = e.Now()
			}
			if t0 < e.Now() {
				t0 = e.Now()
			}
			if stamp > t0 {
				stamp = t0
			}
			if stamp < 0 {
				stamp = 0
			}
			r.at, r.sched = t0, stamp
			pending = append(pending, r)
			all = append(all, r)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := Time(ops[i+1])
			switch ops[i] % 4 {
			case 0:
				schedule(e.Now()+arg%16-4, 0, false)
			case 1:
				schedule(e.Now()+arg%8, e.Now()+arg/8%16-8, true)
			case 2:
				if len(all) > 0 {
					r := all[int(arg)%len(all)]
					e.Cancel(r.id)
					r.dead = true
				}
			case 3:
				sort.Slice(pending, func(i, j int) bool {
					a, b := pending[i], pending[j]
					if a.at != b.at {
						return a.at < b.at
					}
					if a.sched != b.sched {
						return a.sched < b.sched
					}
					return a.seq < b.seq
				})
				if len(pending) > 0 {
					if at, ok := e.PeekTime(); !ok || at != pending[0].at {
						t.Fatalf("PeekTime = %v,%v, want %v", at, ok, pending[0].at)
					}
				}
				want := -1
				for len(pending) > 0 {
					r := pending[0]
					pending = pending[1:]
					if !r.dead {
						want = r.seq
						r.dead = true // fired: later cancels are inert
						break
					}
				}
				fired = -1
				if got := e.Step(); got != (want >= 0) {
					t.Fatalf("op %d: Step() = %v, want %v", i, got, want >= 0)
				}
				if fired != want {
					t.Fatalf("op %d: fired event %d, want %d", i, fired, want)
				}
				if want >= 0 && e.Now() != all[want].at {
					t.Fatalf("op %d: Now() = %v, want %v", i, e.Now(), all[want].at)
				}
				for k, s := range e.queue[len(e.queue):cap(e.queue)] {
					if s.ev != nil {
						t.Fatalf("op %d: vacated heap slot %d still holds an event", i, len(e.queue)+k)
					}
				}
			}
			if e.Pending() != len(pending) {
				t.Fatalf("op %d: Pending() = %d, want %d", i, e.Pending(), len(pending))
			}
		}
	})
}

// TestScheduleFireAllocatesNothing pins the steady-state engine cost: with
// a prebound callback and a warm free list, scheduling and firing an
// event allocates nothing.
func TestScheduleFireAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Duration(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Duration(e.Fired()%64), fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %.2f times per event, want 0", allocs)
	}
}

func TestFreeListReusesStructs(t *testing.T) {
	e := NewEngine(1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			e.After(Duration(i), func() {})
		}
		e.RunAll()
	}
	if len(e.free) != 100 {
		t.Fatalf("free list holds %d structs, want 100", len(e.free))
	}
}
