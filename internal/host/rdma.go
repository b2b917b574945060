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

// One-sided RDMA flows between two detailed hosts on a fabric. Where a
// peerFlow pays remote CPU on every packet — ring descriptor posting,
// IRQ + stack on delivery, CPU-built ACKs — a one-sided READ/WRITE
// resolves the remote buffer in the remote *NIC*: the initiator streams
// into (or out of) a registered memory window, the target NIC
// translates each frame through its device-side ATS cache, and
// acknowledgements are hardware-generated. The remote CPU shows up only
// at memory-registration boundaries, when the window's chunks are
// recycled (unmap + fresh map under the host's protection mode) — which
// is exactly where the safety question lives: a mode that skips the ATC
// shoot-down on unmap leaves the device TLB serving stale translations.

// rdmaWindowChunks sizes each registered window: chunks × descriptor
// pages. 16 chunks of 64 pages (256 KB each at 4 KB pages) comfortably
// exceed the transport's maximum window, so the sender can never lap a
// chunk that is still being recycled.
const rdmaWindowChunks = 16

// rdmaFlow couples a DCTCP sender on the data-source host with
// hardware receive state on the data-sink host. For WRITE the source is
// the initiator; for READ the sink posts a one-time work request to the
// source NIC and the data path is then identical.
type rdmaFlow struct {
	id  int // cluster-wide flow index
	op  transport.Op
	mtu int

	src, dst         *netDev // src = data source, dst = data sink
	srcCPU, dstCPU   int     // device-local core indices
	srcPort, dstPort *fabric.Port

	snd *transport.Sender   // paces the stream; lives on src
	rcv *transport.Receiver // cumulative-ACK state in the sink NIC

	srcMR *mrWindow // streamed from; registered once, never recycled
	dstMR *mrWindow // landed into; chunks recycle behind the ack point
	// txIdx and rxIdx are the flow's places in src.rdmaTx and
	// dst.rdmaRx: a packet's Flow at the source and at the sink.
	txIdx, rxIdx int

	start      sim.Time // staggered first pump (or READ request post)
	flushArmed bool     // delayed hardware-ACK timer pending at dst
	// pumpFn (on src) and flushFn (on dst) are bound once.
	pumpFn, flushFn func()
}

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

// ConnectRDMA wires a one-sided flow whose data flows from this host to
// dst through the given fabric ports. Call before Start; the Cluster
// does this for every (src, dst) pair when its Op is one-sided.
// srcCPU/dstCPU are device-local core indices on the primary NICs —
// touched only at registration boundaries and ACK completions, never
// per packet.
func (h *Host) ConnectRDMA(dst *Host, srcPort, dstPort *fabric.Port, op transport.Op, id, srcCPU, dstCPU int, start sim.Time) *rdmaFlow {
	if !op.OneSided() {
		panic(fmt.Sprintf("host: ConnectRDMA needs a one-sided op, got %v", op))
	}
	// The remote end of a one-sided flow is a device buffer, not a CPU
	// ring: bound the outstanding payload to half the sink's input
	// buffer (RDMA NICs cap outstanding WQE data the same way) so a
	// slow translation path surfaces as ECN marks instead of tail
	// drops, and floor the retransmission timer at device scale — NIC
	// timers run far below the stack's 5ms, which would outlast a run.
	p := h.cfg.Transport
	stride := dst.net.dev.FrameStride(h.net.spec.MTU)
	if max := float64(dst.cfg.NICBufferBytes) / float64(2*stride); p.MaxCwnd == 0 || p.MaxCwnd > max {
		p.MaxCwnd = max
	}
	if p.RTOMin == 0 || p.RTOMin > sim.Millisecond {
		p.RTOMin = sim.Millisecond
	}
	f := &rdmaFlow{
		id:      id,
		op:      op,
		mtu:     h.net.spec.MTU,
		src:     h.net,
		dst:     dst.net,
		srcCPU:  srcCPU,
		dstCPU:  dstCPU,
		srcPort: srcPort,
		dstPort: dstPort,
		txIdx:   len(h.net.rdmaTx),
		rxIdx:   len(dst.net.rdmaRx),
		snd:     transport.NewSender(p),
		rcv:     transport.NewReceiver(p),
		start:   start,
	}
	f.snd.Bind(transport.Endpoint{Host: h.cfg.HostID, Peer: dst.cfg.HostID})
	f.rcv.Bind(transport.Endpoint{Host: dst.cfg.HostID, Peer: h.cfg.HostID})
	f.pumpFn = func() { f.src.pumpRdmaFlow(f) }
	f.flushFn = func() {
		f.flushArmed = false
		if ack, ok := f.rcv.TakeAck(); ok {
			f.dst.sendRdmaAck(f, ack)
		}
	}
	f.srcMR = h.net.newMRWindow(srcCPU, f.mtu)
	f.dstMR = dst.net.newMRWindow(dstCPU, f.mtu)
	h.net.rdmaTx = append(h.net.rdmaTx, f)
	dst.net.rdmaRx = append(dst.net.rdmaRx, f)
	if h.tele != nil {
		f.snd.RegisterProbes(h.tele.reg, h.tele.name(fmt.Sprintf("%s.rdmaflow%d.", h.net.name, id)))
	}
	return f
}

// pumpRdmaFlow streams frames from the source window while the
// congestion window allows. No CPU work per frame: the NIC reads the
// registered buffer directly (translating through its ATC when one is
// attached) and the frame goes onto the fabric from Tx completion.
// Runs on f.src's host.
func (n *netDev) pumpRdmaFlow(f *rdmaFlow) {
	for f.snd.CanSend() {
		seq, _ := f.snd.NextSend()
		f.snd.OnSent(seq, n.h.eng.Now())
		iovas, start := f.srcMR.frame(seq)
		n.dev.SendTxDirect(packet.Packet{Kind: rdmaData, CPU: uint16(f.srcCPU), Bytes: int32(f.mtu),
			Flow: int32(f.txIdx), Seq: seq}, iovas, start)
	}
}

// postRdmaRead posts the one-time READ work request from the initiator
// (the data sink): one stack invocation, a 64-byte request across the
// fabric, and the source NIC starts streaming — its CPU never sees the
// request. Runs on f.dst's host.
func (n *netDev) postRdmaRead(f *rdmaFlow) {
	n.post(f.dstCPU, device.Item{Task: n.prep(), Pkt: packet.Packet{Kind: rdmaReq, CPU: uint16(f.dstCPU),
		Bytes: 64, Flow: int32(f.rxIdx)}})
}

// sendRdmaRead puts a posted READ request on the fabric toward the
// source NIC.
func (n *netDev) sendRdmaRead(pkt packet.Packet) {
	f := n.rdmaRx[pkt.Flow]
	pkt.Flow = int32(f.txIdx)
	f.dstPort.Transmit(f.srcPort.ID(), pkt, f.src)
}

// rdmaTxDone routes a streamed frame onto the fabric toward the sink,
// where it lands as a direct DMA into the target window — no ring, no
// descriptor recycling, no per-packet remote CPU.
func (n *netDev) rdmaTxDone(pkt packet.Packet) {
	f := n.rdmaTx[pkt.Flow]
	pkt.CPU, pkt.Flow = uint16(f.dstCPU), int32(f.rxIdx)
	f.srcPort.Transmit(f.dstPort.ID(), pkt, f.dst)
}

// rdmaDataDelivered handles a frame whose direct DMA into the sink
// window completed. Everything here is NIC-side: transport state,
// goodput accounting and the hardware ACK cost no sink CPU cycles.
func (n *netDev) rdmaDataDelivered(pkt packet.Packet) {
	f := n.rdmaRx[pkt.Flow]
	delivered, ack, ok := f.rcv.Receive(pkt.Seq, pkt.ECN())
	bytes := delivered * int64(f.mtu)
	n.c.rxDeliveredBytes += bytes
	n.creditPeerTx(f.src, bytes)
	if delivered > 0 {
		n.maybeRecycleMR(f)
	}
	if ok {
		n.sendRdmaAck(f, ack)
	} else {
		n.armRdmaFlush(f)
	}
}

// sendRdmaAck emits a hardware-generated ACK from the sink NIC: a
// 64-byte frame straight onto the fabric, no CPU, no Tx mapping.
func (n *netDev) sendRdmaAck(f *rdmaFlow, ack transport.Ack) {
	n.c.acksSent++
	f.dstPort.Transmit(f.srcPort.ID(), ackPacket(rdmaAck, f.srcCPU, f.txIdx, ack), f.src)
}

// armRdmaFlush schedules a delayed hardware ACK at the sink, the NIC
// equivalent of the stack's delayed-ACK timer.
func (n *netDev) armRdmaFlush(f *rdmaFlow) {
	if f.flushArmed {
		return
	}
	f.flushArmed = true
	n.h.eng.After(n.h.cfg.DelAck, f.flushFn)
}

// rdmaAckDelivered lands a hardware ACK at the source: the completion
// surfaces to the initiating core (CQE poll), which re-arms the stream.
// Runs on f.src's host.
func (n *netDev) rdmaAckDelivered(pkt packet.Packet) {
	n.post(n.rdmaTx[pkt.Flow].srcCPU, device.Item{Task: n, Pkt: pkt})
}

// maybeRecycleMR rotates sink window chunks the cumulative ack point
// has fully passed: the driver re-points the chunk's fixed IOVAs at
// fresh application buffers under the host's protection mode, paying
// that mode's invalidation costs — including the ATC shoot-down when
// the device caches translations. This is the one place a one-sided
// flow touches the remote CPU, and the place an unsafe mode leaves the
// device TLB serving translations to memory the window no longer owns.
// Runs on f.dst's host.
func (n *netDev) maybeRecycleMR(f *rdmaFlow) {
	w := f.dstMR
	for f.rcv.RcvNxt() >= (w.recycled+1)*int64(w.framesPer) {
		ord := w.recycled
		w.recycled++
		slot := ord % int64(len(w.chunks))
		n.post(f.dstCPU, device.Item{Task: n, Pkt: packet.Packet{Kind: remapMR, Flow: int32(f.rxIdx), Seq: slot}})
	}
}
