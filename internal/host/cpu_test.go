package host

import (
	"testing"

	"fastsafe/internal/sim"
)

func TestCoreRunsWorkFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Do(func() sim.Duration { order = append(order, i); return 10 }, func() {
			order = append(order, 100+i)
			if i == 0 {
				c.Do(func() sim.Duration { order = append(order, 5); return 0 }, nil)
			}
		})
	}
	if c.QueueLen() != 5 {
		t.Fatalf("QueueLen() = %d before running, want 5", c.QueueLen())
	}
	eng.RunAll()
	want := []int{0, 100, 1, 101, 2, 102, 3, 103, 4, 104, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.BusyTime() != 50 || c.QueueLen() != 0 || c.Busy() {
		t.Fatalf("BusyTime %v QueueLen %d Busy %v, want 50, 0, false", c.BusyTime(), c.QueueLen(), c.Busy())
	}
}

// TestCoreDoAllocatesNothing pins the core's steady-state cost: with
// prebound work and done funcs, queueing and completing an item
// allocates nothing.
func TestCoreDoAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	work := func() sim.Duration { return 10 }
	done := func() {}
	for i := 0; i < 8; i++ {
		c.Do(work, done)
	}
	eng.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Do(work, done)
		c.Do(work, nil)
		eng.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("Do->done allocates %.2f times, want 0", allocs)
	}
}
