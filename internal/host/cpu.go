package host

import (
	"fastsafe/internal/device"
	"fastsafe/internal/fabric"
	"fastsafe/internal/sim"
)

// Core models one CPU core as a serialised work queue: driver and network
// stack work items execute FIFO, each consuming the CPU time its Run
// reports. Per-core utilisation feeds the CPU-bottleneck analysis of §4.4
// (Figure 8a's F&S gap at large ring sizes).
type Core struct {
	eng     *sim.Engine
	queue   sim.FIFO[device.Item]
	cur     device.Item // the item whose CPU time is elapsing while running
	running bool
	busy    sim.Duration // accumulated busy time
	// drainFn and finishFn are c.drain and c.finish bound once, so the
	// per-item events schedule the same func every time.
	drainFn, finishFn func()
}

// NewCore returns an idle core.
func NewCore(eng *sim.Engine) *Core {
	c := &Core{eng: eng}
	c.drainFn, c.finishFn = c.drain, c.finish
	return c
}

// Post enqueues a work item. Its Run runs when the core reaches it and
// returns the CPU time consumed; its Done fires after that time has
// elapsed. The item runs in place in the core, so Run and Done share it.
func (c *Core) Post(it device.Item) {
	c.queue.Push(it)
	if !c.running {
		c.running = true
		c.eng.After(0, c.drainFn)
	}
}

func (c *Core) drain() {
	if c.queue.Len() == 0 {
		c.running = false
		return
	}
	c.cur = c.queue.Pop()
	cost := c.cur.Task.Run(&c.cur)
	if cost < 0 {
		cost = 0
	}
	c.busy += cost
	c.eng.After(cost, c.finishFn)
}

// finish runs the finished item's Done and starts the next item. Done
// may post more work, but the core is running, so nothing drains until
// it returns and c.cur stays its item.
func (c *Core) finish() {
	c.cur.Task.Done(&c.cur)
	c.cur = device.Item{}
	c.drain()
}

// BusyTime returns the total CPU time consumed so far.
func (c *Core) BusyTime() sim.Duration { return c.busy }

// QueueLen returns the number of pending work items.
func (c *Core) QueueLen() int { return c.queue.Len() }

// Busy reports whether the core is currently executing work.
func (c *Core) Busy() bool { return c.running }

// Wire is one direction of the network path between two hosts — a
// fabric.Link used point-to-point. The single-host experiments connect
// the detailed local host to its abstract remote through one Wire per
// direction (the degenerate two-node fabric); clusters route the same
// packets through fabric.Switch ports instead.
type Wire = fabric.Link

// NewWire returns a wire with the given line rate and one-way propagation.
func NewWire(eng *sim.Engine, gbps float64, prop sim.Duration) *Wire {
	return fabric.NewLink(eng, gbps, prop)
}
