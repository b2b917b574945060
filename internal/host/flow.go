package host

import (
	"fmt"

	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/fabric"
	"fastsafe/internal/packet"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// A flow is one DCTCP connection, described by its two ends and the path
// between them. Protection costs are paid at the ends, so the kind of
// each end says everything a flow costs:
//
//   - a stack end is a host whose CPU runs the flow: IRQ and stack per
//     data packet received, stack plus Tx map and unmap per packet sent,
//     and CPU-built ACKs;
//   - a nic end is one-sided: the NIC streams from or lands in a
//     registered memory window (mrWindow) and sends hardware ACKs, and
//     the CPU sees only window recycling and ACK completions;
//   - an abstract end is the single-host experiments' remote peer, with
//     an infinitely fast CPU and no IOMMU.
//
// The path is either a NIC's wire pair to its abstract remote (toLocal
// carries packets toward the host, toRemote toward the remote) or a pair
// of switch ports. The single-host bulk flows run abstract -> stack (Rx)
// and stack -> abstract (Tx) over the wire pair; cluster flows run stack
// -> stack (sendrecv) or nic -> nic (one-sided READ and WRITE) over the
// fabric.
type endKind uint8

const (
	stackEnd endKind = iota
	nicEnd
	abstractEnd
)

// maxSendQueued bounds the CPU-queue work a stack sender keeps
// outstanding. Abstract and nic senders have no CPU queue to bound.
const maxSendQueued = 64

// flowEnd is one end of a flow.
type flowEnd struct {
	kind endKind
	// n is the NIC the end sits behind; for an abstract end, the NIC
	// whose wire pair reaches it.
	n *netDev
	// cpu is the device-local core packets arriving at this end carry;
	// an abstract end takes its host end's.
	cpu int
	// idx is the flow's place in n.flows: the Flow of packets arriving
	// at this end.
	idx  int
	port *fabric.Port // the end's switch port; nil on the wire pair
	mr   *mrWindow    // nic ends: the registered window
}

// hostID is the transport identity of the end's host.
func (e *flowEnd) hostID() int {
	if e.kind == abstractEnd {
		return transport.AbstractPeer
	}
	return e.n.h.cfg.HostID
}

// sink is where packets addressed to the end arrive: the NIC's Rx rings
// for a stack end, the NIC's one-sided engine for a nic end, the remote
// host for an abstract end.
func (e *flowEnd) sink() fabric.Sink {
	switch e.kind {
	case stackEnd:
		return e.n.dev
	case nicEnd:
		return e.n
	}
	return (*remoteEnd)(e.n)
}

// flow couples a DCTCP sender at src with a receiver at dst.
type flow struct {
	name string // probe name: flow<i>, txflow<i>, peerflow<i> or rdmaflow<i>
	op   transport.Op
	mtu  int

	src, dst flowEnd // data source and data sink

	snd *transport.Sender
	rcv *transport.Receiver

	start sim.Time // first pump (or READ request post)

	sendQueued int  // stack senders: CPU-queue work outstanding
	flushArmed bool // delayed-ACK timer pending at dst
	// pumpFn and flushFn are the sender's kick and the receiver's
	// delayed-ACK timer, bound once.
	pumpFn, flushFn func()
}

// newFlow builds a flow and enters it in the flow tables of both ends'
// NICs (once when both ends sit behind the same NIC).
func newFlow(name string, op transport.Op, p transport.Params, mtu int, src, dst flowEnd, start sim.Time) *flow {
	f := &flow{
		name:  name,
		op:    op,
		mtu:   mtu,
		src:   src,
		dst:   dst,
		snd:   transport.NewSender(p),
		rcv:   transport.NewReceiver(p),
		start: start,
	}
	f.snd.Bind(transport.Endpoint{Host: src.hostID(), Peer: dst.hostID()})
	f.rcv.Bind(transport.Endpoint{Host: dst.hostID(), Peer: src.hostID()})
	f.pumpFn = f.pump
	f.flushFn = func() {
		f.flushArmed = false
		f.flush()
	}
	f.src.idx = len(src.n.flows)
	src.n.flows = append(src.n.flows, f)
	f.dst.idx = f.src.idx
	if dst.n != src.n {
		f.dst.idx = len(dst.n.flows)
		dst.n.flows = append(dst.n.flows, f)
	}
	return f
}

// connect wires a flow from this host to dst through the given fabric
// ports, using verb op. Call before Start; the Cluster does this for
// every (src, dst) pair its traffic pattern names. srcCPU/dstCPU are
// device-local core indices on the primary NICs of the two hosts.
func (h *Host) connect(dst *Host, srcPort, dstPort *fabric.Port, op transport.Op, id, srcCPU, dstCPU int, start sim.Time) {
	p := h.cfg.Transport
	mtu := h.net.spec.MTU
	src := flowEnd{kind: stackEnd, n: h.net, cpu: srcCPU, port: srcPort}
	snk := flowEnd{kind: stackEnd, n: dst.net, cpu: dstCPU, port: dstPort}
	name := "peerflow"
	if op.OneSided() {
		// The sink of a one-sided flow is a device buffer, not a CPU
		// ring: bound the outstanding payload to half the sink's input
		// buffer (RDMA NICs cap outstanding WQE data the same way) so a
		// slow translation path surfaces as ECN marks instead of tail
		// drops, and floor the retransmission timer at device scale —
		// NIC timers run far below the stack's 5ms, which would outlast
		// a run.
		stride := dst.net.dev.FrameStride(mtu)
		if max := float64(dst.cfg.NICBufferBytes) / float64(2*stride); p.MaxCwnd == 0 || p.MaxCwnd > max {
			p.MaxCwnd = max
		}
		if p.RTOMin == 0 || p.RTOMin > sim.Millisecond {
			p.RTOMin = sim.Millisecond
		}
		src.kind, snk.kind, name = nicEnd, nicEnd, "rdmaflow"
		src.mr = h.net.newMRWindow(srcCPU, mtu)
		snk.mr = dst.net.newMRWindow(dstCPU, mtu)
	}
	f := newFlow(fmt.Sprintf("%s%d", name, id), op, p, mtu, src, snk, start)
	if h.tele != nil {
		h.tele.addFlow(h.net, f)
	}
}

// pump lets the sender transmit while its window allows: a stack sender
// queues stack and Tx-mapping work on its core, a nic sender streams
// frames straight from its window, an abstract sender puts them on the
// wire.
func (f *flow) pump() {
	s := &f.src
	for f.snd.CanSend() && (s.kind != stackEnd || f.sendQueued < maxSendQueued) {
		seq, _ := f.snd.NextSend()
		f.snd.OnSent(seq, s.n.h.eng.Now())
		pkt := packet.Packet{Kind: flowData, CPU: uint16(s.cpu), Bytes: int32(f.mtu), Flow: int32(s.idx), Seq: seq}
		switch s.kind {
		case stackEnd:
			f.sendQueued++
			s.n.post(s.cpu, device.Item{Task: s.n.prep(), Pkt: pkt})
		case nicEnd:
			iovas, start := s.mr.frame(seq)
			s.n.dev.SendTxDirect(pkt, iovas, start)
		default:
			f.carry(&f.dst, pkt)
		}
	}
}

// carry puts pkt on the flow's path toward end to, addressed to that
// end's core and flow table.
func (f *flow) carry(to *flowEnd, pkt packet.Packet) {
	from := &f.src
	if to == from {
		from = &f.dst
	}
	pkt.CPU, pkt.Flow = uint16(to.cpu), int32(to.idx)
	switch {
	case from.port != nil:
		from.port.Transmit(to.port.ID(), pkt, to.sink())
	case to.kind == abstractEnd:
		to.n.toRemote.Send(pkt, to.sink())
	default:
		to.n.toLocal.Send(pkt, to.sink())
	}
}

// delivered accounts segs in-order segments at the receiver: goodput at
// a host receiver, and the sender's Tx credit unless the sender is
// abstract.
func (f *flow) delivered(segs int64) {
	bytes := segs * int64(f.mtu)
	d := f.dst.n
	if f.dst.kind != abstractEnd {
		d.c.rxDeliveredBytes += bytes
	}
	if f.src.kind != abstractEnd {
		d.creditTx(f.src.n, bytes)
	}
}

// receive runs a receiver that spends no CPU on data (nic and abstract
// ends): transport state, goodput, window recycling, then the ACK or
// the delayed-ACK timer. Stack receivers split the same steps across
// their core's Run and Done.
func (f *flow) receive(pkt packet.Packet) {
	delivered, ack, ok := f.rcv.Receive(pkt.Seq, pkt.ECN())
	f.delivered(delivered)
	if delivered > 0 && f.dst.kind == nicEnd {
		f.recycleWindow()
	}
	if ok {
		f.sendAck(ack)
	} else {
		f.armFlush()
	}
}

// sendAck emits an ACK from the receiver: a stack receiver's core builds
// and maps it (onTxDone carries it), a nic receiver sends a hardware ACK
// with no CPU and no mapping, an abstract receiver just sends it.
func (f *flow) sendAck(ack transport.Ack) {
	d := &f.dst
	pkt := ackPacket(d.cpu, d.idx, ack)
	switch d.kind {
	case stackEnd:
		d.n.post(d.cpu, device.Item{Task: d.n.prep(), Pkt: pkt})
		return
	case nicEnd:
		d.n.c.acksSent++
	}
	f.carry(&f.src, pkt)
}

// flush sends the receiver's pending delayed ACK, if any.
func (f *flow) flush() {
	if ack, ok := f.rcv.TakeAck(); ok {
		f.sendAck(ack)
	}
}

// armFlush schedules a delayed-ACK flush at the receiver, modelling the
// ACK a stack emits at the end of a NAPI batch (or the NIC's delayed
// hardware ACK).
func (f *flow) armFlush() {
	if f.flushArmed {
		return
	}
	f.flushArmed = true
	h := f.dst.n.h
	h.eng.After(h.cfg.DelAck, f.flushFn)
}

// postRead posts the one-time READ work request from the initiator (the
// data sink): one stack invocation, a 64-byte request across the fabric,
// and the source NIC starts streaming — its CPU never sees the request.
func (f *flow) postRead() {
	d := &f.dst
	d.n.post(d.cpu, device.Item{Task: d.n.prep(), Pkt: packet.Packet{Kind: rdmaReq, CPU: uint16(d.cpu),
		Bytes: 64, Flow: int32(d.idx)}})
}

// rdmaWindowChunks sizes each registered window: chunks × descriptor
// pages. 16 chunks of 64 pages (256 KB each at 4 KB pages) comfortably
// exceed the transport's maximum window, so the sender can never lap a
// chunk that is still being recycled.
const rdmaWindowChunks = 16

// mrWindow is a registered memory region the one-sided verbs target: a
// ring of descriptor chunks addressed by absolute frame sequence
// number, packed at the same stride the Rx rings use.
type mrWindow struct {
	chunks    []*core.Descriptor
	stride    int   // frame slot stride in bytes
	framesPer int   // frame slots per chunk
	recycled  int64 // chunk ordinals recycled so far (sink side only)
}

// frame maps an absolute sequence number to the window pages and byte
// offset its DMA targets.
func (w *mrWindow) frame(seq int64) (iovas []ptable.IOVA, start int) {
	slot := int((seq / int64(w.framesPer)) % int64(len(w.chunks)))
	return w.chunks[slot].IOVAs, int(seq%int64(w.framesPer)) * w.stride
}

// newMRWindow registers a window on this device's domain: the mapping
// happens at connection setup, before the clock runs, so it costs
// nothing — exactly like ring and descriptor pre-population.
func (n *netDev) newMRWindow(cpu, mtu int) *mrWindow {
	w := &mrWindow{stride: n.dev.FrameStride(mtu)}
	for i := 0; i < rdmaWindowChunks; i++ {
		desc, _, err := n.dom.MapRxDescriptor(cpu)
		if err != nil {
			panic(fmt.Sprintf("host: MapRx(rdma window): %v", err))
		}
		w.chunks = append(w.chunks, desc)
	}
	w.framesPer = len(w.chunks[0].IOVAs) * ptable.PageSize / w.stride
	return w
}

// recycleWindow rotates sink window chunks the cumulative ack point has
// fully passed: the driver re-points the chunk's fixed IOVAs at fresh
// application buffers under the host's protection mode, paying that
// mode's invalidation costs — including the ATC shoot-down when the
// device caches translations. This is the one place a one-sided flow
// touches the sink's CPU, and the place an unsafe mode leaves the device
// TLB serving translations to memory the window no longer owns.
func (f *flow) recycleWindow() {
	d := &f.dst
	w := d.mr
	for f.rcv.RcvNxt() >= (w.recycled+1)*int64(w.framesPer) {
		ord := w.recycled
		w.recycled++
		slot := ord % int64(len(w.chunks))
		d.n.post(d.cpu, device.Item{Task: d.n, Pkt: packet.Packet{Kind: remapMR, Flow: int32(d.idx), Seq: slot}})
	}
}

// creditTx mirrors delivered bytes into the sending NIC's Tx accounting.
// Same-engine hosts apply it inline. Sharded clusters post it to the
// sender's shard, where it lands at the next synchronization barrier:
// the increment is commutative bookkeeping whose timing only mid-window
// sampler reads can observe, never simulated behaviour, and every post
// is drained before a window's clocks align, so Results are unchanged.
func (n *netDev) creditTx(src *netDev, bytes int64) {
	if bytes == 0 {
		return
	}
	if credit := n.h.creditTx; credit != nil {
		credit(src, bytes)
		return
	}
	src.c.txDeliveredBytes += bytes
}

// meanCwnd is the mean congestion window of the flows this NIC receives
// from its abstract remote (the bulk Rx flows); 0 without any.
func (n *netDev) meanCwnd() float64 {
	var sum float64
	k := 0
	for _, f := range n.flows {
		if f.src.kind == abstractEnd {
			sum += f.snd.Cwnd()
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}
