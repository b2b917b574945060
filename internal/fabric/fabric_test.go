package fabric

import (
	"testing"

	"fastsafe/internal/packet"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// bytes is a header-only packet of the given size.
func bytes(n int) packet.Packet { return packet.Packet{Bytes: int32(n)} }

// A link serialises back-to-back packets at its line rate: the second
// delivery waits for the first's serialisation slot.
func TestLinkSerialises(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100, 2*sim.Microsecond) // 100Gbps, 2us prop
	var at []sim.Time
	for i := 0; i < 3; i++ {
		l.Send(bytes(4096), FuncSink(func(bool) { at = append(at, eng.Now()) }))
	}
	eng.Run(sim.Time(1) * sim.Millisecond)
	if len(at) != 3 {
		t.Fatalf("expected 3 deliveries, got %d", len(at))
	}
	ser := sim.Duration(4096 * 8 / 100) // ns per packet at 100Gbps
	for i, want := range []sim.Time{
		sim.Time(ser) + 2000,
		sim.Time(2*ser) + 2000,
		sim.Time(3*ser) + 2000,
	} {
		if at[i] != want {
			t.Fatalf("delivery %d at %d, want %d", i, at[i], want)
		}
	}
	if l.Packets() != 3 || l.Bytes() != 3*4096 {
		t.Fatalf("counters: packets=%d bytes=%d", l.Packets(), l.Bytes())
	}
}

// A standing queue above the averaged threshold marks ECN; an idle link
// never marks.
func TestLinkECNMarksStandingQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 1, 0) // 1Gbps: 4KB takes ~32.8us to serialise
	l.SetECN(8 << 10)
	marked := false
	for i := 0; i < 64; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Microsecond, func() {
			l.Send(bytes(4096), FuncSink(func(ecn bool) { marked = marked || ecn }))
		})
	}
	eng.Run(sim.Time(10) * sim.Millisecond)
	if !marked {
		t.Fatal("standing queue above threshold never marked ECN")
	}

	idle := NewLink(eng, 100, 0)
	idle.SetECN(8 << 10)
	idle.Send(bytes(4096), FuncSink(func(ecn bool) {
		if ecn {
			t.Fatal("idle link marked ECN")
		}
	}))
	eng.Run(eng.Now() + sim.Time(1)*sim.Millisecond)
	if idle.Marked() != 0 {
		t.Fatalf("idle link marked %d packets", idle.Marked())
	}
}

func TestSwitchValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := NewSwitch(eng, 1, Config{}); err == nil {
		t.Fatal("1-port switch accepted")
	}
	if _, err := NewSwitch(eng, 4, Config{Oversub: -1}); err == nil {
		t.Fatal("negative oversubscription accepted")
	}
	sw, err := NewSwitch(eng, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Ports() != 4 {
		t.Fatalf("Ports() = %d, want 4", sw.Ports())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	sw.Port(0).Send(0, 4096, func(bool) {})
}

// The end-to-end propagation budget is preserved across the switch: a
// packet on an unloaded 2-hop fabric arrives exactly one serialisation
// per hop plus the configured propagation later.
func TestSwitchPropagationBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, err := NewSwitch(eng, 2, Config{PortGbps: 100, Prop: 2 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Time
	sw.Port(0).Send(1, 4096, func(bool) { got = eng.Now() })
	eng.Run(sim.Time(1) * sim.Millisecond)
	ser := sim.Time(4096 * 8 / 100)
	want := 2*ser + 2000 // two serialisations + the full 2us budget
	if got != want {
		t.Fatalf("delivery at %d, want %d", got, want)
	}
}

// Incast congestion lands at the destination's downlink: many sources
// sending to one port mark ECN there while the sources' uplinks stay
// clean.
func TestSwitchIncastMarksAtDownlink(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, err := NewSwitch(eng, 8, Config{PortGbps: 100, Prop: 2 * sim.Microsecond, ECNK: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	for src := 1; src < 8; src++ {
		src := src
		for i := 0; i < 64; i++ {
			i := i
			eng.At(sim.Time(i)*sim.Microsecond/3, func() {
				sw.Port(src).Send(0, 4096, func(ecn bool) {
					if ecn {
						marks++
					}
				})
			})
		}
	}
	eng.Run(sim.Time(10) * sim.Millisecond)
	if marks == 0 {
		t.Fatal("incast produced no ECN marks at the destination downlink")
	}
	for src := 1; src < 8; src++ {
		if m := sw.Port(src).up.Marked(); m != 0 {
			t.Fatalf("uplink %d marked %d packets; incast congestion must mark at the downlink", src, m)
		}
	}
	if sw.Port(0).down.Marked() == 0 {
		t.Fatal("destination downlink recorded no marks")
	}
}

// An oversubscribed core throttles cross-fabric aggregate bandwidth and
// shows up in the probe registry.
func TestSwitchOversubscribedCore(t *testing.T) {
	run := func(oversub float64) (last sim.Time) {
		eng := sim.NewEngine(1)
		sw, err := NewSwitch(eng, 4, Config{PortGbps: 100, Oversub: oversub})
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 4; src++ {
			src := src
			for i := 0; i < 256; i++ {
				eng.At(0, func() {
					sw.Port(src).Send((src+1)%4, 4096, func(bool) { last = eng.Now() })
				})
			}
		}
		eng.Run(sim.Time(100) * sim.Millisecond)
		return last
	}
	nonBlocking := run(0)
	throttled := run(4) // core at 1/4 aggregate
	if throttled <= nonBlocking {
		t.Fatalf("4:1 oversubscription did not slow the fabric: %d <= %d", throttled, nonBlocking)
	}

	eng := sim.NewEngine(1)
	sw, _ := NewSwitch(eng, 2, Config{Oversub: 2})
	reg := stats.NewRegistry()
	sw.RegisterProbes(reg, "fabric.")
	for _, name := range []string{"fabric.port0.up.bytes", "fabric.port1.down.backlog", "fabric.core.packets"} {
		if _, ok := reg.Value(name); !ok {
			t.Fatalf("probe %s not registered", name)
		}
	}
}

// PerHopProp splits the end-to-end budget over 2 hops on a crossbar and
// 3 when an oversubscribed core adds a shared stage.
func TestPerHopProp(t *testing.T) {
	if got := (Config{}).PerHopProp(); got != sim.Microsecond {
		t.Fatalf("non-blocking PerHopProp = %v, want 1us", got)
	}
	// 2us over 3 hops, truncated to whole nanoseconds.
	if got := (Config{Oversub: 4}).PerHopProp(); got != 666 {
		t.Fatalf("oversubscribed PerHopProp = %v, want 666ns", got)
	}
}

// directRouter posts every cross-shard hop onto one shared engine — the
// degenerate single-shard topology, enough to drive the sharded Send
// path end to end. Each hop is a closure here; real routers carry the
// Hop value itself.
type directRouter struct {
	eng *sim.Engine
	sw  **Switch
}

func (r directRouter) PostPort(src, dst int, gen, at sim.Time, h Hop) {
	r.eng.At(at, func() { (*r.sw).Forward(h) })
}
func (r directRouter) PostCore(src int, gen, at sim.Time, h Hop) {
	r.eng.At(at, func() { (*r.sw).Forward(h) })
}

func TestShardedSwitchRoutesHops(t *testing.T) {
	if _, err := NewShardedSwitch(2, Config{}, nil, nil, nil); err == nil {
		t.Fatal("nil router accepted")
	}

	for _, oversub := range []float64{0, 2} {
		eng := sim.NewEngine(1)
		var sw *Switch
		sw, err := NewShardedSwitch(4, Config{Oversub: oversub},
			func(int) *sim.Engine { return eng }, eng, directRouter{eng, &sw})
		if err != nil {
			t.Fatal(err)
		}
		if oversub > 0 && sw.Core() == nil {
			t.Fatal("oversubscribed switch has no core link")
		}
		if oversub == 0 && sw.Core() != nil {
			t.Fatal("non-blocking switch grew a core link")
		}
		p := sw.Port(1)
		if p.ID() != 1 || p.Uplink() == nil || p.Downlink() == nil {
			t.Fatalf("port accessors: id=%d up=%v down=%v", p.ID(), p.Uplink(), p.Downlink())
		}
		delivered := false
		p.Send(3, 4096, func(bool) { delivered = true })
		eng.Run(sim.Time(1) * sim.Millisecond)
		if !delivered {
			t.Fatalf("oversub %g: packet never delivered through the sharded path", oversub)
		}
		if sw.Port(3).Downlink().Packets() != 1 {
			t.Fatalf("oversub %g: destination downlink saw %d packets, want 1",
				oversub, sw.Port(3).Downlink().Packets())
		}
	}
}

// The packet header survives every hop, and the sink sees the OR of the
// hops' marks: the downlink under incast marks, and a mark set before
// the last hop is never cleared by it.
func TestTransmitCarriesHeaderAndMarks(t *testing.T) {
	for _, oversub := range []float64{0, 2} {
		eng := sim.NewEngine(1)
		sw, err := NewSwitch(eng, 4, Config{Oversub: oversub, ECNK: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		var got []packet.Packet
		sink := sinkFunc(func(p packet.Packet) { got = append(got, p) })
		for src := 1; src < 4; src++ {
			for i := 0; i < 64; i++ {
				sw.Port(src).Transmit(0, packet.Packet{Bytes: 4096, Seq: int64(i), Flow: int32(src), Kind: 7}, sink)
			}
		}
		eng.RunAll()
		if len(got) != 3*64 {
			t.Fatalf("oversub %g: %d packets delivered, want %d", oversub, len(got), 3*64)
		}
		marked, next := 0, map[int32]int64{}
		for _, p := range got {
			if p.Kind != 7 || p.Bytes != 4096 || p.Seq != next[p.Flow] {
				t.Fatalf("oversub %g: header mangled or reordered: %+v", oversub, p)
			}
			next[p.Flow]++
			if p.ECN() {
				marked++
			}
		}
		if marked == 0 {
			t.Fatalf("oversub %g: incast delivered no marked packet", oversub)
		}
	}
}

type sinkFunc func(packet.Packet)

func (f sinkFunc) Arrive(p packet.Packet) { f(p) }

// TestLinkSendZeroAlloc pins the link's steady-state cost: sending a
// packet to a sink and delivering it allocates nothing.
func TestLinkSendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	w := NewLink(eng, 100, 1000)
	n := 0
	sink := sinkFunc(func(packet.Packet) { n++ })
	for i := 0; i < 8; i++ {
		w.Send(bytes(4096), sink)
	}
	eng.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		w.Send(bytes(4096), sink)
		w.Send(bytes(64), sink)
		eng.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("Send->arrive allocates %.2f times, want 0", allocs)
	}
}

// TestPortSendZeroAlloc does the same for a whole switch traversal,
// through the shared core and without it. Port.Send's func adapter is
// allocation-free too.
func TestPortSendZeroAlloc(t *testing.T) {
	for _, oversub := range []float64{0, 2} {
		eng := sim.NewEngine(1)
		sw, err := NewSwitch(eng, 4, Config{Oversub: oversub})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		sink := sinkFunc(func(packet.Packet) { n++ })
		deliver := func(bool) { n++ }
		for i := 0; i < 8; i++ {
			sw.Port(1).Transmit(2, bytes(4096), sink)
			sw.Port(3).Send(2, 4096, deliver)
		}
		eng.RunAll()
		allocs := testing.AllocsPerRun(1000, func() {
			sw.Port(1).Transmit(2, bytes(4096), sink)
			sw.Port(3).Send(2, 4096, deliver)
			eng.RunAll()
		})
		if allocs != 0 {
			t.Fatalf("oversub %g: Port send->arrive allocates %.2f times, want 0", oversub, allocs)
		}
	}
}

// shardedRouter routes hops the way a sharded cluster does: each Hop is
// copied into a value queue and forwarded by one prebound event, so the
// router itself allocates nothing once warm.
type shardedRouter struct {
	eng    *sim.Engine
	sw     *Switch
	q      sim.FIFO[Hop]
	fireFn func()
}

func (r *shardedRouter) PostPort(src, dst int, gen, at sim.Time, h Hop) { r.post(at, h) }
func (r *shardedRouter) PostCore(src int, gen, at sim.Time, h Hop)      { r.post(at, h) }

// post queues h for time at. Every hop in these tests leaves one stage
// a fixed propagation after the previous stage, so hops fire in post
// order and one FIFO serves.
func (r *shardedRouter) post(at sim.Time, h Hop) {
	r.q.Push(h)
	r.eng.At(at, r.fireFn)
}

func TestShardedPortSendZeroAlloc(t *testing.T) {
	for _, oversub := range []float64{0, 2} {
		eng := sim.NewEngine(1)
		r := &shardedRouter{eng: eng}
		r.fireFn = func() { r.sw.Forward(r.q.Pop()) }
		sw, err := NewShardedSwitch(4, Config{Oversub: oversub},
			func(int) *sim.Engine { return eng }, eng, r)
		if err != nil {
			t.Fatal(err)
		}
		r.sw = sw
		n := 0
		sink := sinkFunc(func(packet.Packet) { n++ })
		for i := 0; i < 8; i++ {
			sw.Port(1).Transmit(2, bytes(4096), sink)
			eng.RunAll()
		}
		allocs := testing.AllocsPerRun(1000, func() {
			sw.Port(1).Transmit(2, bytes(4096), sink)
			eng.RunAll()
		})
		if allocs != 0 {
			t.Fatalf("oversub %g: sharded Port send->arrive allocates %.2f times, want 0", oversub, allocs)
		}
		if n != 8+1001 {
			t.Fatalf("oversub %g: %d packets delivered, want %d", oversub, n, 8+1001)
		}
	}
}
