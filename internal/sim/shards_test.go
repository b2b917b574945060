package sim

import (
	"fmt"
	"runtime"
	"testing"
)

func TestPeekTimeAndRunBefore(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on an empty engine reported an event")
	}
	var fired []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if at, ok := e.PeekTime(); !ok || at != 10 {
		t.Fatalf("PeekTime = (%v, %v), want (10, true)", at, ok)
	}
	e.RunBefore(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("RunBefore(20) fired %v, want [10] only (bound is exclusive)", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("RunBefore advanced the clock to %v, want 10 (no alignment to bound)", e.Now())
	}
	e.RunBefore(31)
	if len(fired) != 3 {
		t.Fatalf("RunBefore(31) left %d events unfired", 3-len(fired))
	}
}

func TestPeekTimeSeesCancelledEvents(t *testing.T) {
	// A cancelled event still bounds PeekTime until popped — a conservative
	// (earlier-than-real) answer, which the shard coordinator tolerates as a
	// wasted round, never an unsafe one.
	e := NewEngine(1)
	id := e.At(5, func() { t.Fatal("cancelled event fired") })
	e.Cancel(id)
	if at, ok := e.PeekTime(); !ok || at != 5 {
		t.Fatalf("PeekTime = (%v, %v), want (5, true) for a cancelled head", at, ok)
	}
	e.RunBefore(6)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("RunBefore did not drain the cancelled event")
	}
}

func TestShardsValidation(t *testing.T) {
	for _, tc := range []struct {
		n  int
		la Duration
	}{{0, 1}, {1, 0}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShards(%d, la=%d) did not panic", tc.n, tc.la)
				}
			}()
			newFuncShards(tc.n, 1, tc.la)
		}()
	}
}

func TestShardsConservativeDelivery(t *testing.T) {
	// Two shards ping-pong a message with delivery timestamps exactly one
	// lookahead ahead — the tightest legal conservative schedule. The trace
	// must interleave in timestamp order despite parallel rounds.
	const la = 10
	s := newFuncShards(2, 1, la)
	var trace []string
	hops := 0
	var hop func(src int)
	hop = func(src int) {
		me := src
		eng := s.Engine(me)
		trace = append(trace, fmt.Sprintf("%d@%d", me, eng.Now()))
		hops++
		if hops >= 8 {
			return
		}
		now := eng.Now()
		s.Post(me, 1-me, now, now+la, func() { hop(1 - me) })
	}
	s.Engine(0).At(0, func() { hop(0) })
	s.Run(1000)
	want := "[0@0 1@10 0@20 1@30 0@40 1@50 0@60 1@70]"
	if got := fmt.Sprintf("%v", trace); got != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	if s.Rounds() == 0 {
		t.Fatal("coordinator reported zero rounds")
	}
	for i := 0; i < s.N(); i++ {
		if now := s.Engine(i).Now(); now != 1000 {
			t.Fatalf("shard %d clock = %v after Run(1000), want aligned to 1000", i, now)
		}
	}
}

func TestShardsSameShardPostIsDirect(t *testing.T) {
	s := newFuncShards(2, 1, 5)
	ran := false
	s.Post(0, 0, 0, 3, func() { ran = true })
	if pend := s.Engine(0).Pending(); pend != 1 {
		t.Fatalf("same-shard post did not schedule directly (pending=%d)", pend)
	}
	s.Run(10)
	if !ran {
		t.Fatal("same-shard post never ran")
	}
}

func TestShardsRelaxedPostClampsToNow(t *testing.T) {
	// A commutative bookkeeping post with a timestamp behind the receiver
	// must still apply (clamped to the receiver's clock), not fire in the
	// past or get lost.
	s := newFuncShards(2, 1, 5)
	var appliedAt Time = -1
	s.Engine(1).At(50, func() {}) // receiver is ahead of the post's timestamp
	s.Engine(0).At(60, func() {
		s.Post(0, 1, 60, 0, func() { appliedAt = s.Engine(1).Now() })
	})
	s.Run(100)
	if appliedAt < 0 {
		t.Fatal("relaxed post never applied")
	}
	if appliedAt < 50 {
		t.Fatalf("relaxed post applied at %v, before the receiver's clock", appliedAt)
	}
}

// shardTrace runs a deterministic 4-shard workload where every shard
// floods every other with conservatively timestamped messages, and
// returns the merged event trace.
func shardTrace(seed int64) string {
	const (
		n  = 4
		la = Duration(7)
	)
	s := newFuncShards(n, seed, la)
	traces := make([][]string, n)
	var step func(me, from, depth int)
	step = func(me, from, depth int) {
		eng := s.Engine(me)
		traces[me] = append(traces[me], fmt.Sprintf("%d<-%d@%d#%d", me, from, eng.Now(), depth))
		if depth >= 5 {
			return
		}
		now := eng.Now()
		for dst := 0; dst < n; dst++ {
			if dst == me {
				continue
			}
			dst := dst
			// Vary delivery offsets so timestamps collide across sources:
			// the deterministic (at, gen, src, seq) barrier order is what
			// keeps the trace stable.
			off := la + Duration((me+dst+depth)%3)
			s.Post(me, dst, now, now+off, func() { step(dst, me, depth+1) })
		}
	}
	for i := 0; i < n; i++ {
		i := i
		s.Engine(i).At(Time(i%2), func() { step(i, i, 0) })
	}
	s.Run(60)
	return fmt.Sprintf("%v rounds>0=%v", traces, s.Rounds() > 0)
}

func TestShardsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := shardTrace(42)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("GOMAXPROCS=%d rep=%d: trace diverged\n got %s\nwant %s", procs, rep, got, want)
			}
		}
	}
}

func TestShardsRepeatedRunWindows(t *testing.T) {
	// Run in two windows (warm-up then measure) and compare against one
	// continuous run: the barrier at the window boundary must not change
	// the event schedule.
	one := shardTrace(7)

	// Same workload, split manually: shardTrace uses Run(60); replicate it
	// with the library under two Run calls by re-running and splitting.
	const (
		n  = 4
		la = Duration(7)
	)
	s := newFuncShards(n, 7, la)
	traces := make([][]string, n)
	var step func(me, from, depth int)
	step = func(me, from, depth int) {
		eng := s.Engine(me)
		traces[me] = append(traces[me], fmt.Sprintf("%d<-%d@%d#%d", me, from, eng.Now(), depth))
		if depth >= 5 {
			return
		}
		now := eng.Now()
		for dst := 0; dst < n; dst++ {
			if dst == me {
				continue
			}
			dst := dst
			off := la + Duration((me+dst+depth)%3)
			s.Post(me, dst, now, now+off, func() { step(dst, me, depth+1) })
		}
	}
	for i := 0; i < n; i++ {
		i := i
		s.Engine(i).At(Time(i%2), func() { step(i, i, 0) })
	}
	s.Run(13)
	for i := 0; i < n; i++ {
		if now := s.Engine(i).Now(); now != 13 {
			t.Fatalf("shard %d clock %v after first window, want 13", i, now)
		}
	}
	s.Run(60)
	got := fmt.Sprintf("%v rounds>0=%v", traces, s.Rounds() > 0)
	if got != one {
		t.Fatalf("split windows diverged from continuous run\n got %s\nwant %s", got, one)
	}
}

// newFuncShards is a coordinator whose messages are funcs, run on
// delivery.
func newFuncShards(n int, seed int64, la Duration) *Shards[func()] {
	return NewShards(n, seed, la, func(fn func()) { fn() })
}

// TestShardsPostZeroAlloc checks that value messages cross the barrier
// without allocating once the outboxes and delivery records are warm,
// both between shards and within one. One message is in flight at a
// time, so every round has a single busy shard and runs inline (rounds
// with several busy shards start goroutines, which allocate).
func TestShardsPostZeroAlloc(t *testing.T) {
	const la = 10
	type msg struct{ at, hops int }
	var s *Shards[msg]
	got := 0
	s = NewShards(2, 1, la, func(m msg) {
		got++
		if m.hops == 0 {
			return
		}
		to := m.at
		if m.hops%2 == 0 {
			to = 1 - m.at // every other hop crosses shards
		}
		now := s.Engine(m.at).Now()
		s.Post(m.at, to, now, now+la, msg{to, m.hops - 1})
	})
	round := func() {
		s.Post(0, 1, 0, s.Engine(0).Now()+la, msg{1, 8})
		s.Run(s.Engine(0).Now() + 100*la)
	}
	round()
	want := got
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("a round of value posts allocates %.2f times, want 0", allocs)
	}
	if got != want*102 {
		t.Fatalf("delivered %d messages, want %d", got, want*102)
	}
}
