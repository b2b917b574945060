package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Shards runs N engines under conservative parallel discrete-event
// simulation. Each shard owns one Engine and the simulation state pinned
// to it; shards only influence each other through timestamped messages
// posted via Post. Execution proceeds in synchronized rounds: the
// coordinator finds the globally earliest pending event at time T, lets
// every shard run its local events in the window [T, T+lookahead) in
// parallel, then delivers the cross-shard messages generated during the
// round at the barrier. The protocol is safe when every cross-shard
// message carries a delivery timestamp at least lookahead beyond the
// virtual time it was generated at — the caller's lookahead must be a
// lower bound on cross-shard causality (for the fabric: the per-hop
// propagation delay).
//
// Within a round each engine runs on its own goroutine and touches only
// its own shard's state, so the usual engine-confinement rules keep the
// simulation race-free. Message delivery order at the barrier is sorted
// by (timestamp, generation time, source shard, post order), which is
// independent of goroutine scheduling — sharded runs are bit-for-bit
// deterministic for a given seed regardless of GOMAXPROCS.
//
// Messages are values of type M, handed to the receive func on the
// destination shard's engine at their delivery time. A message travels
// by value in the outbox and then in a per-destination record taken from
// a free list, so posting allocates nothing once the lists are warm.
type Shards[M any] struct {
	engs      []*Engine
	lookahead Duration
	receive   func(M)

	// outbox[src] collects the posts generated by shard src during the
	// current round. Only shard src's goroutine appends to it, so no two
	// goroutines share a slice; the coordinator drains them between rounds.
	outbox [][]post[M]
	// inbox is the coordinator's scratch buffer for barrier delivery.
	inbox []post[M]
	// free[dst] holds shard dst's idle delivery records. Only dst's own
	// goroutine touches it during a round (same-shard posts and firing),
	// and only the coordinator between rounds (barrier delivery).
	free [][]*delivery[M]

	rounds uint64
}

// post is one cross-shard message awaiting barrier delivery.
type post[M any] struct {
	src, dst int
	gen, at  Time
	seq      int // arrival order within (src, round); breaks exact ties
	msg      M
}

// delivery is a message scheduled on its destination engine. fire is
// its prebound fire method, so scheduling it allocates nothing.
type delivery[M any] struct {
	s    *Shards[M]
	dst  int
	msg  M
	fire func()
}

// NewShards returns n engines coordinated with the given lookahead;
// receive handles each message on its destination shard. Engine i is
// seeded with seed+i (shard simulations derive their own per-component
// RNG streams from configuration seeds; the engine RNGs exist only to
// satisfy the Engine contract). Panics unless n >= 1 and lookahead > 0
// — a zero lookahead would make every round a single event and the
// protocol would degenerate to sequential execution.
func NewShards[M any](n int, seed int64, lookahead Duration, receive func(M)) *Shards[M] {
	if n < 1 {
		panic("sim: NewShards needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewShards needs a positive lookahead")
	}
	s := &Shards[M]{
		engs:      make([]*Engine, n),
		lookahead: lookahead,
		receive:   receive,
		outbox:    make([][]post[M], n),
		free:      make([][]*delivery[M], n),
	}
	for i := range s.engs {
		s.engs[i] = NewEngine(seed + int64(i))
	}
	return s
}

// deliveryFor takes an idle record of shard dst and loads msg into it.
func (s *Shards[M]) deliveryFor(dst int, msg M) *delivery[M] {
	var d *delivery[M]
	if n := len(s.free[dst]); n > 0 {
		d = s.free[dst][n-1]
		s.free[dst][n-1] = nil
		s.free[dst] = s.free[dst][:n-1]
	} else {
		d = &delivery[M]{s: s, dst: dst}
		d.fire = d.run
	}
	d.msg = msg
	return d
}

// run hands the message to the receiver after returning the record to
// its shard's free list.
func (d *delivery[M]) run() {
	msg := d.msg
	var zero M
	d.msg = zero
	d.s.free[d.dst] = append(d.s.free[d.dst], d)
	d.s.receive(msg)
}

// N returns the shard count.
func (s *Shards[M]) N() int { return len(s.engs) }

// Engine returns shard i's engine.
func (s *Shards[M]) Engine(i int) *Engine { return s.engs[i] }

// Lookahead returns the cross-shard causality bound the coordinator was
// built with.
func (s *Shards[M]) Lookahead() Duration { return s.lookahead }

// Rounds returns the number of synchronization rounds executed so far —
// a telemetry hook for scaling analysis (wall-clock cost is roughly
// events + rounds x barrier overhead).
func (s *Shards[M]) Rounds() uint64 { return s.rounds }

// Post delivers msg at virtual time at in shard dst. src names the shard
// whose event loop is calling (the only shard allowed to post during its
// round), and gen is the virtual time the posting event ran at. Same-shard
// posts schedule directly; cross-shard posts queue in src's outbox and are
// delivered at the next barrier in deterministic (at, gen, src, order)
// order.
//
// Conservative posts satisfy at >= gen + lookahead and always land ahead
// of every shard's window. Posts that violate the bound are still legal
// for commutative bookkeeping (counter credits whose timing is invisible
// to simulated behaviour): delivery clamps them to the destination's
// current time, i.e. they apply at the next barrier.
func (s *Shards[M]) Post(src, dst int, gen, at Time, msg M) {
	if src == dst {
		s.engs[dst].At(at, s.deliveryFor(dst, msg).fire)
		return
	}
	s.outbox[src] = append(s.outbox[src], post[M]{
		src: src, dst: dst, gen: gen, at: at, seq: len(s.outbox[src]), msg: msg,
	})
}

// flush delivers every queued cross-shard post. Sorting by (at, gen, src,
// seq) fixes the destination engines' scheduling order — and therefore
// their tie-breaking sequence numbers — independent of which goroutine
// finished its round first. Including the generation time in the key makes
// barrier delivery match the order a single shared engine would have
// scheduled the same sends in whenever their generation times differ.
func (s *Shards[M]) flush() {
	s.inbox = s.inbox[:0]
	for src := range s.outbox {
		s.inbox = append(s.inbox, s.outbox[src]...)
		clear(s.outbox[src]) // the buffers keep no message alive
		s.outbox[src] = s.outbox[src][:0]
	}
	if len(s.inbox) == 0 {
		return
	}
	slices.SortFunc(s.inbox, comparePosts[M])
	for i := range s.inbox {
		p := &s.inbox[i]
		s.engs[p.dst].AtStamped(p.at, p.gen, s.deliveryFor(p.dst, p.msg).fire)
	}
	clear(s.inbox)
}

// comparePosts orders posts by (at, gen, src, seq). (src, seq) is unique
// within a round, so the order is total.
func comparePosts[M any](a, b post[M]) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.gen != b.gen:
		return cmp.Compare(a.gen, b.gen)
	case a.src != b.src:
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.seq, b.seq)
}

// Run executes all shards up to and including deadline, then aligns every
// engine's clock to the deadline (mirroring Engine.Run so per-shard
// samplers and snapshots observe the same virtual instant). It may be
// called repeatedly with increasing deadlines — the cluster runner uses
// one call for warm-up and one for the measurement window, taking
// snapshots at the barrier in between.
func (s *Shards[M]) Run(deadline Time) {
	for {
		s.flush()
		next, any := Time(0), false
		for _, e := range s.engs {
			if t, ok := e.PeekTime(); ok && (!any || t < next) {
				next, any = t, true
			}
		}
		if !any || next > deadline {
			break
		}
		// Events in [next, bound) are safe to run in parallel: any
		// cross-shard message generated at gen >= next is timestamped
		// at >= gen + lookahead >= bound. The deadline clamp keeps
		// bound <= next+lookahead, so it only ever tightens the window.
		bound := next + s.lookahead
		if bound > deadline {
			bound = deadline + 1
		}
		s.rounds++
		s.runRound(bound)
	}
	for _, e := range s.engs {
		e.Run(deadline)
	}
}

// runRound drains every shard's events below bound, in parallel when more
// than one shard has work in the window.
func (s *Shards[M]) runRound(bound Time) {
	var single *Engine
	n := 0
	for _, e := range s.engs {
		if t, ok := e.PeekTime(); ok && t < bound {
			single = e
			n++
		}
	}
	switch n {
	case 0:
		return
	case 1:
		single.RunBefore(bound)
		return
	}
	var wg sync.WaitGroup
	for _, e := range s.engs {
		t, ok := e.PeekTime()
		if !ok || t >= bound {
			continue
		}
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.RunBefore(bound)
		}(e)
	}
	wg.Wait()
}

// String renders coordinator telemetry for debugging.
func (s *Shards[M]) String() string {
	return fmt.Sprintf("shards{n=%d lookahead=%s rounds=%d}", len(s.engs), s.lookahead, s.rounds)
}
