package sim

// FIFO is a first-in first-out queue on a ring buffer. Its storage grows
// to the peak occupancy (rounded up to a power of two) and is then reused,
// so a queue that never drains — a busy link — still stops allocating
// once it has seen its deepest backlog. Popped slots are zeroed, so the
// queue retains no pointer to an element it has handed back.
//
// The zero value is an empty queue ready for use.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the head without removing it. It panics on an empty
// queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek on empty FIFO")
	}
	return q.buf[q.head]
}

// grow doubles the storage (minimum 4), unrolling the ring so the head
// lands at index 0.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
