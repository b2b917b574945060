package host

import (
	"fastsafe/internal/device"
	"fastsafe/internal/packet"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Request/response machinery used by the latency-sensitive RPC experiment
// (Figure 9) and the real-application models (Figure 11: Redis, Nginx,
// SPDK). Messages are segmented into MTU-sized packets, reassembled at the
// far side, and re-sent wholesale on a timeout — the message layer has no
// congestion window (the apps are depth-limited closed loops).

// MsgPattern selects which side holds the bulk payload.
type MsgPattern int

const (
	// LocalServes: the remote client sends the request payload *into* the
	// local host (Rx-heavy there) and the local host answers with a small
	// response. Models a Redis SET server or an RPC server.
	LocalServes MsgPattern = iota
	// LocalClient: the local host sends a small request and receives the
	// bulk response (Rx-heavy locally). Models an Nginx/wrk or SPDK
	// client.
	LocalClient
)

// MsgConfig configures the request/response workload.
type MsgConfig struct {
	Pattern   MsgPattern
	Streams   int          // concurrent connections
	Depth     int          // outstanding requests per stream (pipelining)
	ReqBytes  int          // request payload
	RespBytes int          // response payload
	AppCPU    sim.Duration // local per-request application CPU
	Timeout   sim.Duration // lost-message resend timeout (default 5ms)
	Cores     int          // local cores the streams spread over (default host Cores)
	CoreBase  int          // first core index (default 0)
}

func (c MsgConfig) withDefaults(h *Host) MsgConfig {
	if c.Streams <= 0 {
		c.Streams = 1
	}
	if c.Depth <= 0 {
		c.Depth = 1
	}
	if c.ReqBytes <= 0 {
		c.ReqBytes = 64
	}
	if c.RespBytes <= 0 {
		c.RespBytes = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * sim.Millisecond
	}
	if c.Cores <= 0 {
		c.Cores = h.cfg.Cores
	}
	return c
}

// slotState tracks one outstanding request from the initiator's side.
type slotState struct {
	msg     int64
	start   sim.Time // first send (latency reference)
	lastTx  sim.Time // last (re)send, for the timeout
	retries int
}

type msgStream struct {
	id      int
	cpu     int
	nextMsg int64
	slots   map[int64]*slotState

	// Reassembly state, keyed by message id, on whichever side receives.
	localSeen  map[int64]map[int]bool
	remoteSeen map[int64]map[int]bool
	answered   map[int64]bool // LocalServes: requests already responded to
}

type msgApp struct {
	h   *Host
	cfg MsgConfig

	streams []*msgStream
	latency stats.Histogram

	completed      int64
	completedBytes int64
	retries        int64
}

// InstallMessages attaches a request/response workload. Call before Start.
func (h *Host) InstallMessages(cfg MsgConfig) *msgApp {
	cfg = cfg.withDefaults(h)
	app := &msgApp{h: h, cfg: cfg}
	for s := 0; s < cfg.Streams; s++ {
		app.streams = append(app.streams, &msgStream{
			id:         s,
			cpu:        cfg.CoreBase + s%cfg.Cores,
			slots:      make(map[int64]*slotState),
			localSeen:  make(map[int64]map[int]bool),
			remoteSeen: make(map[int64]map[int]bool),
			answered:   make(map[int64]bool),
		})
	}
	h.msgs = app
	if h.tele != nil {
		// The workload owns the latency histogram; the registry shares the
		// same object so telemetry readers see identical quantiles.
		h.tele.reg.AddHistogram(h.tele.name("rpc.latency_ns"), &app.latency)
		h.tele.reg.GaugeFunc(h.tele.name("rpc.completed"), func() float64 { return float64(app.completed) })
		h.tele.reg.GaugeFunc(h.tele.name("rpc.retries"), func() float64 { return float64(app.retries) })
	}
	return app
}

// Latency returns the completion-latency histogram (ns), measured at the
// initiator.
func (a *msgApp) Latency() *stats.Histogram { return &a.latency }

// Completed returns the number of finished exchanges.
func (a *msgApp) Completed() int64 { return a.completed }

// start kicks off Depth outstanding requests on every stream.
func (a *msgApp) start() {
	for i, s := range a.streams {
		s := s
		a.h.eng.At(sim.Time(i)*sim.Microsecond, func() {
			for d := 0; d < a.cfg.Depth; d++ {
				a.initiate(s)
			}
		})
	}
}

func segCount(bytes, mtu int) int {
	n := (bytes + mtu - 1) / mtu
	if n < 1 {
		n = 1
	}
	return n
}

func segBytes(total, mtu, idx int) int {
	rem := total - idx*mtu
	if rem > mtu {
		return mtu
	}
	if rem < 64 {
		return 64 // minimum wire frame
	}
	return rem
}

// initiate opens a new request slot on stream s and sends the request.
func (a *msgApp) initiate(s *msgStream) {
	m := s.nextMsg
	s.nextMsg++
	now := a.h.eng.Now()
	s.slots[m] = &slotState{msg: m, start: now, lastTx: now}
	a.sendRequest(s, m)
}

// A message segment on the wire is a msgSeg packet: Flow is the stream,
// Seq the message id, Aux the segment index, and flagReply marks a
// response. The segment count follows from the message size.

// segment returns segment i of message m on stream s.
func (a *msgApp) segment(s *msgStream, m int64, i int, reply bool) packet.Packet {
	size := a.cfg.ReqBytes
	if reply {
		size = a.cfg.RespBytes
	}
	p := packet.Packet{Kind: msgSeg, CPU: uint16(s.cpu), Bytes: int32(segBytes(size, a.h.cfg.MTU, i)),
		Flow: int32(s.id), Seq: m, Aux: int32(i)}
	if reply {
		p.Flags |= flagReply
	}
	return p
}

// segments returns the segment count of a request or a response.
func (a *msgApp) segments(reply bool) int {
	if reply {
		return segCount(a.cfg.RespBytes, a.h.cfg.MTU)
	}
	return segCount(a.cfg.ReqBytes, a.h.cfg.MTU)
}

// sendRequest transmits (or retransmits) the request segments of msg m.
func (a *msgApp) sendRequest(s *msgStream, m int64) {
	n := a.segments(false)
	switch a.cfg.Pattern {
	case LocalServes:
		// Remote client -> local server over the wire.
		for i := 0; i < n; i++ {
			a.h.net.toLocal.Send(a.segment(s, m, i, false), a.h.net.dev)
		}
	case LocalClient:
		// Local client -> remote server: each segment costs CPU + Tx DMA.
		for i := 0; i < n; i++ {
			a.sendLocalSeg(a.segment(s, m, i, false))
		}
	}
}

// sendLocalSeg maps and transmits one locally-originated segment.
func (a *msgApp) sendLocalSeg(seg packet.Packet) {
	a.h.net.post(int(seg.CPU), device.Item{Task: a.h.net.prep(), Pkt: seg})
}

// onDeliver handles a message segment DMA'd into local memory.
func (a *msgApp) onDeliver(pkt packet.Packet) {
	a.h.net.post(a.streams[pkt.Flow].cpu, device.Item{Task: a, Pkt: pkt})
}

// Run implements device.Task: the stack and application work for a
// delivered segment.
func (a *msgApp) Run(it *device.Item) sim.Duration {
	seg := it.Pkt
	s := a.streams[seg.Flow]
	reply := seg.Flags&flagReply != 0
	cost := a.h.net.stackCost()
	switch a.cfg.Pattern {
	case LocalServes:
		if reply {
			panic("host: response segment delivered to serving host")
		}
		if s.answered[seg.Seq] {
			// Duplicate of an already-served request: re-answer once
			// the tail segment shows up (the response may be lost).
			if int(seg.Aux) == a.segments(false)-1 {
				cost += a.respond(s, seg.Seq)
			}
			return cost
		}
		if a.assemble(s.localSeen, seg) {
			s.answered[seg.Seq] = true
			cost += a.cfg.AppCPU
			cost += a.respond(s, seg.Seq)
		}
	case LocalClient:
		if !reply {
			panic("host: request segment delivered to requesting host")
		}
		slot, ok := s.slots[seg.Seq]
		if !ok {
			return cost // stale segment of a completed exchange
		}
		if a.assemble(s.localSeen, seg) {
			cost += a.cfg.AppCPU
			a.complete(s, slot, int64(a.cfg.RespBytes))
		}
	}
	return cost
}

// Done implements device.Task; a delivered segment needs nothing more.
func (a *msgApp) Done(*device.Item) {}

// assemble records a segment, reporting true when the message is complete.
// Completed messages are pruned so duplicates don't re-trigger.
func (a *msgApp) assemble(seen map[int64]map[int]bool, seg packet.Packet) bool {
	set := seen[seg.Seq]
	if set == nil {
		set = make(map[int]bool)
		seen[seg.Seq] = set
	}
	set[int(seg.Aux)] = true
	if len(set) == a.segments(seg.Flags&flagReply != 0) {
		delete(seen, seg.Seq)
		return true
	}
	return false
}

// respond sends the response for msg m from the local host (LocalServes).
// Returns the CPU cost of queueing (mapping costs are charged per segment
// by sendLocalSeg).
func (a *msgApp) respond(s *msgStream, m int64) sim.Duration {
	n := a.segments(true)
	for i := 0; i < n; i++ {
		a.sendLocalSeg(a.segment(s, m, i, true))
	}
	return 0
}

// remoteReceive is the abstract remote host's side: it assembles segments
// instantly, answers requests (LocalClient) or completes exchanges
// (LocalServes).
func (a *msgApp) remoteReceive(seg packet.Packet) {
	s := a.streams[seg.Flow]
	reply := seg.Flags&flagReply != 0
	switch a.cfg.Pattern {
	case LocalServes:
		if !reply {
			panic("host: request segment arrived back at remote client")
		}
		slot, ok := s.slots[seg.Seq]
		if !ok {
			return // stale response for a completed exchange
		}
		if a.assemble(s.remoteSeen, seg) {
			a.complete(s, slot, int64(a.cfg.ReqBytes))
		}
	case LocalClient:
		if reply {
			panic("host: response segment arrived at remote server")
		}
		if a.assemble(s.remoteSeen, seg) {
			// Remote server answers instantly with the bulk response.
			n := a.segments(true)
			for i := 0; i < n; i++ {
				a.h.net.toLocal.Send(a.segment(s, seg.Seq, i, true), a.h.net.dev)
			}
		}
	}
}

// complete finishes one exchange: record latency, free the slot, start the
// next request.
func (a *msgApp) complete(s *msgStream, slot *slotState, payload int64) {
	a.latency.Observe(int64(a.h.eng.Now() - slot.start))
	a.completed++
	a.completedBytes += payload
	delete(s.slots, slot.msg)
	delete(s.answered, slot.msg)
	a.initiate(s)
}

// housekeeping retries requests whose exchange has stalled past the
// timeout (a segment was tail-dropped at the NIC).
func (a *msgApp) housekeeping(now sim.Time) {
	for _, s := range a.streams {
		for _, slot := range s.slots {
			if now-slot.lastTx >= a.cfg.Timeout {
				slot.lastTx = now
				slot.retries++
				a.retries++
				// Clear partial reassembly so the resend starts clean.
				delete(s.localSeen, slot.msg)
				delete(s.remoteSeen, slot.msg)
				delete(s.answered, slot.msg)
				a.sendRequest(s, slot.msg)
			}
		}
	}
}
