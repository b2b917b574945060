package host

import (
	"testing"
	"unsafe"

	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/packet"
	"fastsafe/internal/sim"
)

// orderTask records the order its items run and finish in. An item's
// Seq names it and Bytes is its CPU time; Run leaves a result in Aux
// for Done to check, and item 0's Done posts item 5.
type orderTask struct {
	c     *Core
	order []int
}

func (o *orderTask) Run(it *device.Item) sim.Duration {
	o.order = append(o.order, int(it.Pkt.Seq))
	it.Pkt.Aux = int32(1000 + it.Pkt.Seq)
	return sim.Duration(it.Pkt.Bytes)
}

func (o *orderTask) Done(it *device.Item) {
	if it.Pkt.Aux != int32(1000+it.Pkt.Seq) {
		panic("Done did not see the item Run wrote")
	}
	o.order = append(o.order, 100+int(it.Pkt.Seq))
	if it.Pkt.Seq == 0 {
		o.c.Post(device.Item{Task: o, Pkt: packet.Packet{Seq: 5}})
	}
}

func TestCoreRunsWorkFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	o := &orderTask{c: c}
	for i := 0; i < 5; i++ {
		c.Post(device.Item{Task: o, Pkt: packet.Packet{Seq: int64(i), Bytes: 10}})
	}
	if c.QueueLen() != 5 {
		t.Fatalf("QueueLen() = %d before running, want 5", c.QueueLen())
	}
	eng.RunAll()
	want := []int{0, 100, 1, 101, 2, 102, 3, 103, 4, 104, 5, 105}
	if len(o.order) != len(want) {
		t.Fatalf("order = %v, want %v", o.order, want)
	}
	for i := range want {
		if o.order[i] != want[i] {
			t.Fatalf("order = %v, want %v", o.order, want)
		}
	}
	if c.BusyTime() != 50 || c.QueueLen() != 0 || c.Busy() {
		t.Fatalf("BusyTime %v QueueLen %d Busy %v, want 50, 0, false", c.BusyTime(), c.QueueLen(), c.Busy())
	}
}

// costTask charges Bytes of CPU time and does nothing else.
type costTask struct{}

func (costTask) Run(it *device.Item) sim.Duration { return sim.Duration(it.Pkt.Bytes) }
func (costTask) Done(*device.Item)                {}

// TestCorePostZeroAlloc pins the core's steady-state cost: queueing and
// completing a typed item allocates nothing.
func TestCorePostZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	o := &orderTask{c: c}
	for i := 0; i < 8; i++ {
		c.Post(device.Item{Task: costTask{}, Pkt: packet.Packet{Bytes: 10}})
	}
	eng.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Post(device.Item{Task: costTask{}, Pkt: packet.Packet{Bytes: 10}})
		c.Post(device.Item{Task: o, Pkt: packet.Packet{Seq: 1}})
		o.order = o.order[:0]
		eng.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("Post->Done allocates %.2f times, want 0", allocs)
	}
}

// TestCoreItemSizeof holds a core work item at 48 bytes: a Task, a
// packet header and a Tx mapping. Every core's queue keeps its peak
// capacity for the whole run — thousands of slots on a serving fleet —
// so each byte here costs live heap in every slot of every core.
func TestCoreItemSizeof(t *testing.T) {
	if got := unsafe.Sizeof(device.Item{}); got > 48 {
		t.Fatalf("unsafe.Sizeof(device.Item{}) = %d, want <= 48", got)
	}
	var it device.Item
	if got := unsafe.Sizeof(it.Task) + unsafe.Sizeof(it.Pkt) + unsafe.Sizeof((*core.TxMapping)(nil)); got != unsafe.Sizeof(it) {
		t.Fatalf("device.Item has %d bytes of padding", unsafe.Sizeof(it)-got)
	}
}
