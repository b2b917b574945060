package sim

import "testing"

func TestFIFOOrderAcrossWraparound(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// Hold three elements in a four-slot ring while pushing and popping
	// many times its size, so head and tail wrap repeatedly.
	for i := 0; i < 3; i++ {
		q.Push(next)
		next++
	}
	for i := 0; i < 50; i++ {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
		want++
	}
	if len(q.buf) != 4 {
		t.Fatalf("ring grew to %d slots at occupancy 3-4, want 4", len(q.buf))
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

func TestFIFOGrowthWhileWrapped(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5) // ring full with head at slot 2: tail wrapped to slots 0-1
	if q.head == 0 {
		t.Fatal("test setup: ring is not wrapped")
	}
	for i := 6; i < 20; i++ {
		q.Push(i) // grows while wrapped
	}
	for want := 2; want < 20; want++ {
		if got := q.Pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after draining, want 0", q.Len())
	}
}

func TestFIFOPopZeroesSlot(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 3; i++ {
		v := i
		q.Push(&v)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

// TestFIFOCapacityBoundedAtSteadyOccupancy is the guard against a queue
// that only reclaims storage when it drains: a link that stays busy keeps
// k elements queued forever, and its storage must stay near k.
func TestFIFOCapacityBoundedAtSteadyOccupancy(t *testing.T) {
	for _, k := range []int{1, 3, 7, 64, 100} {
		var q FIFO[int]
		for i := 0; i < k; i++ {
			q.Push(i)
		}
		for i := 0; i < 100*k+1000; i++ {
			q.Push(i)
			q.Pop()
		}
		if q.Len() != k {
			t.Fatalf("k=%d: Len() = %d", k, q.Len())
		}
		if c := len(q.buf); c > 2*k+4 {
			t.Fatalf("k=%d: storage grew to %d slots, want <= %d", k, c, 2*k+4)
		}
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}

// Peek returns the head across wraparound and growth without moving it,
// and panics on an empty queue like Pop.
func TestFIFOPeek(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 40; i++ {
		q.Push(i)
		if i%3 == 0 {
			head := q.Peek()
			if got := q.Pop(); got != head {
				t.Fatalf("Peek = %d, then Pop = %d", head, got)
			}
		}
		if q.Len() > 0 && q.Peek() != q.buf[q.head] {
			t.Fatal("Peek is not the head slot")
		}
	}
	n := q.Len()
	if q.Peek(); q.Len() != n {
		t.Fatal("Peek changed the length")
	}
	for q.Len() > 0 {
		q.Pop()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek on an empty FIFO did not panic")
		}
	}()
	q.Peek()
}
