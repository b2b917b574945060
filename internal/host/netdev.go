package host

import (
	"fmt"

	"fastsafe/internal/ats"
	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/nic"
	"fastsafe/internal/packet"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// The NIC reference implementation of device.Device: the full §2.1
// network datapath — rings, Rx/Tx PCIe links, wire pair to an abstract
// remote host, DCTCP bulk flows — packaged so a Topology can attach any
// number of them to one host, each with its own protection domain over
// the shared IOMMU.

// NICSpec configures one NIC device in a Topology. Zero fields inherit
// the host Config's corresponding value; Mode is a pointer so that an
// explicit Off (a bypass device) is distinguishable from "inherit".
type NICSpec struct {
	Mode        *core.Mode // protection mode (nil = host Config.Mode)
	Cores       int        // cores serving bulk Rx flows
	RxFlows     int        // bulk flows in (-1 = none, 0 = Cores)
	TxFlows     int        // bulk flows out, one extra core each
	MTU         int        // data packet payload
	RingPackets int        // Rx ring strides per core
	LinkGbps    float64    // line rate of this NIC's wire pair
	// PeerSlots provisions extra Tx cores (and per-CPU IOVA magazines) for
	// cluster peer flows originating at this NIC. 0 — the single-host
	// default — changes nothing: core counts and cache layouts stay
	// bit-for-bit identical to the pre-fabric host.
	PeerSlots int
}

// resolve fills zero fields from the host config.
func (s NICSpec) resolve(cfg Config) NICSpec {
	if s.Cores <= 0 {
		s.Cores = cfg.Cores
	}
	if s.RxFlows < 0 {
		s.RxFlows = 0
	} else if s.RxFlows == 0 {
		s.RxFlows = s.Cores
	}
	if s.TxFlows < 0 {
		s.TxFlows = 0
	}
	if s.MTU <= 0 {
		s.MTU = cfg.MTU
	}
	if s.RingPackets <= 0 {
		s.RingPackets = cfg.RingPackets
	}
	if s.LinkGbps <= 0 {
		s.LinkGbps = cfg.LinkGbps
	}
	if s.PeerSlots < 0 {
		s.PeerSlots = 0
	}
	return s
}

// Packet kinds. A packet's Flow indexes the flow table of the endpoint
// handling it; Seq is a segment's sequence number, an ACK's cumulative
// point, or a message's id.
const (
	flowData packet.Kind = iota + 1 // a flow's data segment, sender -> receiver
	flowAck                         // its ACK, receiver -> sender
	rdmaReq                         // READ work request, sink -> source
	msgSeg                          // request/response message segment
	serveSeg                        // serving-fleet request or response segment

	// Core work that is not a packet. unmapTx releases a Tx mapping;
	// remapMR re-points a sink window chunk (Flow: the sink's flow index, Seq:
	// chunk slot); connMap maps a serving connection's buffer (Flow:
	// connection).
	unmapTx
	remapMR
	connMap
)

// Packet flags beyond ECN.
const (
	flagEcho  packet.Flags = packet.FlagUser << iota // ACK: ECN echo
	flagDup                                          // ACK: duplicate
	flagReply                                        // msgSeg, serveSeg: response, not request
	flagIRQ                                          // delivery: the core was idle, charge an interrupt
	flagAcked                                        // delivery: Run produced the ACK in Seq and flags
)

// ackPacket is an ACK header: Seq is the cumulative point.
func ackPacket(cpu, flow int, ack transport.Ack) packet.Packet {
	p := packet.Packet{Kind: flowAck, CPU: uint16(cpu), Bytes: 64, Flow: int32(flow)}
	setAck(&p, ack)
	return p
}

// setAck stores ack in p's Seq and ACK flags.
func setAck(p *packet.Packet, ack transport.Ack) {
	p.Seq = ack.CumAck
	p.Flags &^= flagEcho | flagDup
	if ack.ECNEcho {
		p.Flags |= flagEcho
	}
	if ack.Dup {
		p.Flags |= flagDup
	}
}

// ackOf reads the ACK a packet carries.
func ackOf(p packet.Packet) transport.Ack {
	return transport.Ack{CumAck: p.Seq, ECNEcho: p.Flags&flagEcho != 0, Dup: p.Flags&flagDup != 0}
}

// recordAck leaves a delivery's ACK, if any, in the item for Done,
// which sends ackOf(it.Pkt) when flagAcked is set.
func recordAck(it *device.Item, ack transport.Ack, ok bool) {
	if ok {
		setAck(&it.Pkt, ack)
		it.Pkt.Flags |= flagAcked
	}
}

// counters that the snapshot mechanism diffs across the warmup boundary.
type hostCounters struct {
	rxDeliveredBytes int64 // in-order transport deliveries into the local host
	txDeliveredBytes int64 // local bulk data delivered in-order at the remote
	acksSent         int64 // ACK packets generated locally
}

// netDev is one NIC attached to the host. Flow cpu indices are
// device-local (0-based); cpuBase maps them onto host cores, so the
// primary NIC (cpuBase 0) keeps the legacy core layout and additional
// NICs land on their own core range.
type netDev struct {
	h       *Host
	name    string
	spec    NICSpec
	mode    core.Mode
	cpuBase int
	seedOff int64
	primary bool

	dom    *core.Domain
	rx, tx *pcie.Link
	dev    *nic.NIC

	toLocal  *Wire // remote -> local
	toRemote *Wire // local -> remote

	// flows holds every flow with an end behind this NIC (see flow.go),
	// in creation order: the single-host Rx then Tx flows, whose both
	// ends sit here, or the cluster flows this host sends or receives.
	flows []*flow

	lastDeferredFlush sim.Time

	c hostCounters
}

// netExec lets the NIC schedule driver work on host cores, offsetting
// the device-local ring index by the device's core base. The NIC calls
// it once per recycled descriptor.
type netExec struct{ n *netDev }

func (e netExec) Do(cpu int, work func() sim.Duration, done func()) {
	e.n.post(cpu, device.Item{Task: &device.FuncTask{Work: work, Then: done}})
}

// post queues a work item on the host core behind device-local core cpu.
func (n *netDev) post(cpu int, it device.Item) { n.h.core(n.cpuBase + cpu).Post(it) }

// The netDev's core work comes in two roles. The netDev itself is the
// Task for received packets and driver chores; txPrep, the same netDev
// under another name, builds and maps outgoing packets. Both convert to
// a Task without allocating.
type txPrep netDev

// remoteEnd is the netDev's abstract remote host: the sink of its
// toRemote wire.
type remoteEnd netDev

// prep returns the Tx-preparation role.
func (n *netDev) prep() *txPrep { return (*txPrep)(n) }

// Name implements device.Device.
func (n *netDev) Name() string { return n.name }

// Kind implements device.Device.
func (n *netDev) Kind() string { return "nic" }

// Domain implements device.Device.
func (n *netDev) Domain() *core.Domain { return n.dom }

// Stats implements device.Device: bulk payload delivered in order on
// either side of this NIC's wire pair.
func (n *netDev) Stats() device.Stats {
	st := n.dev.Stats()
	return device.Stats{
		Ops:   st.RxDMAs + st.TxDMAs,
		Bytes: n.c.rxDeliveredBytes + n.c.txDeliveredBytes,
	}
}

// Attach implements device.Device. The NIC datapath needs the concrete
// host (cores, config, message dispatch), not just the device.Host
// surface.
func (n *netDev) Attach(dh device.Host) error {
	h, ok := dh.(*Host)
	if !ok {
		return fmt.Errorf("host: netDev must attach to *host.Host, got %T", dh)
	}
	n.h = h
	cfg := h.cfg
	dom, err := h.NewDomain(core.Config{
		Mode:            n.mode,
		NumCPUs:         n.spec.Cores + n.spec.TxFlows + n.spec.PeerSlots + 8, // slack for app cores
		DescriptorPages: cfg.DescriptorPages,
		Costs:           cfg.Costs,
		TxFreeCPUShift:  1,    // Tx-completion IRQ lands on a neighbouring core
		FreePoolSize:    8192, // app threads release buffers out of order
		// The primary NIC takes the IOMMU's default domain 0, keeping the
		// legacy single-NIC cache indexing bit-for-bit.
		DefaultDomain: n.primary,
		TraceL3:       cfg.Telemetry.TraceL3 && n.primary,
		TraceLimit:    cfg.Telemetry.TraceLimit,
		ATS:           ats.Config{Entries: cfg.ATSEntries},
	}, n.seedOff)
	if err != nil {
		return fmt.Errorf("host: %w", err)
	}
	n.dom = dom
	// The auditor re-walks device-cached translations too (nil-safe on
	// both sides: no auditor, or no ATC attached).
	h.aud.AttachATC(n.dom.ID(), n.dom.ATC())
	n.rx = h.NewLink()
	n.tx = h.NewLink()
	n.toLocal = NewWire(h.eng, n.spec.LinkGbps, cfg.PropDelay)
	n.toLocal.SetECN(cfg.ECNKBytes)
	n.toRemote = NewWire(h.eng, n.spec.LinkGbps, cfg.PropDelay)
	n.toRemote.SetECN(cfg.ECNKBytes)

	dev, err := nic.New(h.eng, nic.Config{
		Cores:       n.spec.Cores + n.spec.TxFlows + n.spec.PeerSlots + 8,
		MTU:         n.spec.MTU,
		RingPackets: n.spec.RingPackets,
		BufferBytes: cfg.NICBufferBytes,
		ECNKBytes:   -1, // ECN marks come from the switch, not the NIC
		// One-sided DMA terminates at the device, so its buffer is the
		// congestion point — mark there (the CNP analog) at the DCTCP K.
		DirectECNKBytes: cfg.ECNKBytes,
		Faults:          h.Faults().Device(n.dom),
	}, n.dom, n.rx, n.tx, netExec{n})
	if err != nil {
		return fmt.Errorf("host: %w", err)
	}
	n.dev = dev
	dev.OnDeliver = n.onDeliver
	dev.OnTxDone = n.onTxDone

	// The bulk flows run between the abstract remote host and this NIC's
	// cores, over the wire pair: Rx flows from the remote, Tx flows to it.
	for i := 0; i < n.spec.RxFlows; i++ {
		cpu := i % n.spec.Cores
		newFlow(fmt.Sprintf("flow%d", i), transport.SendRecv, cfg.Transport, n.spec.MTU,
			flowEnd{kind: abstractEnd, n: n, cpu: cpu}, flowEnd{kind: stackEnd, n: n, cpu: cpu},
			sim.Time(i)*sim.Microsecond)
	}
	for j := 0; j < n.spec.TxFlows; j++ {
		cpu := n.spec.Cores + j
		newFlow(fmt.Sprintf("txflow%d", j), transport.SendRecv, cfg.Transport, n.spec.MTU,
			flowEnd{kind: stackEnd, n: n, cpu: cpu}, flowEnd{kind: abstractEnd, n: n, cpu: cpu},
			sim.Time(j)*sim.Microsecond)
	}
	return nil
}

// Start implements device.Device: launch the flows this NIC sends. A
// READ instead starts at its sink, which posts the work request that
// kicks the source remotely.
func (n *netDev) Start() {
	for _, f := range n.flows {
		switch {
		case f.src.n == n && f.op != transport.Read:
			n.h.eng.At(f.start, f.pumpFn)
		case f.dst.n == n && f.op == transport.Read:
			n.h.eng.At(f.start, f.postRead)
		}
	}
}

// mtuPages returns pages per MTU stride of this NIC.
func (n *netDev) mtuPages() int { return (n.spec.MTU + ptable.PageSize - 1) / ptable.PageSize }

// stackCost returns the per-packet network-stack CPU cost, inflated for
// large rings (prefetcher inefficiency, §4.4).
func (n *netDev) stackCost() sim.Duration {
	c := float64(n.h.cfg.StackCost)
	ring := float64(n.spec.RingPackets)
	for r := 256.0; r < ring; r *= 2 {
		c += float64(n.h.cfg.StackCost) * n.h.cfg.RingCPUFactor
	}
	return sim.Duration(c)
}

// flowHousekeeping fires RTO checks and delayed-ACK flushes for this
// NIC's flows. A flow with both ends here (the wire pair) checks its
// sender's timer, then flushes its receiver; a cluster host checks its
// senders first, then flushes its receivers.
func (n *netDev) flowHousekeeping(now sim.Time) {
	for _, f := range n.flows {
		if f.src.n != n {
			continue
		}
		if f.snd.MaybeTimeout(now) {
			f.pump()
		}
		if f.dst.n == n {
			f.flush()
		}
	}
	for _, f := range n.flows {
		if f.dst.n == n && f.src.n != n {
			f.flush()
		}
	}
}

// deferredFlush is the deferred-mode timer flush of this NIC's domain.
// Linux lazy mode also flushes on a timer, not just the 256-entry
// threshold (10ms in the kernel); the period is a runtime knob.
func (n *netDev) deferredFlush(now sim.Time) {
	if now-n.lastDeferredFlush >= n.dom.Knobs().FlushInterval {
		n.lastDeferredFlush = now
		if cost := n.dom.FlushDeferred(); cost > 0 {
			n.post(0, device.Item{Task: &device.FuncTask{Work: func() sim.Duration { return cost }}})
		}
	}
}

// onDeliver handles a packet whose DMA into local memory completed.
func (n *netDev) onDeliver(pkt nic.Packet) {
	h := n.h
	// Memory traffic: the DMA write (unless DDIO lands it in LLC) plus the
	// stack/application copying the payload in and out.
	if !h.cfg.DDIO {
		h.bus.Consume(int(pkt.Bytes))
	}
	// One-sided data lands in application memory with no stack or
	// application copy; everything else pays the copy in and out.
	oneSided := pkt.Kind == flowData && n.flows[pkt.Flow].dst.kind == nicEnd
	if !oneSided {
		h.bus.Consume(2 * int(pkt.Bytes))
	}
	switch pkt.Kind {
	case flowData:
		if oneSided {
			n.flows[pkt.Flow].receive(pkt)
			return
		}
		// Stack processing on the receiving core, with an interrupt when
		// the core is idle.
		n.post(int(pkt.CPU), device.Item{Task: n, Pkt: h.withIRQ(n.cpuBase+int(pkt.CPU), pkt)})
	case flowAck:
		// An ACK is not charged an interrupt.
		n.post(int(pkt.CPU), device.Item{Task: n, Pkt: pkt})
	case msgSeg:
		h.msgs.onDeliver(pkt)
	case serveSeg:
		h.serve.onDeliver(pkt)
	default:
		panic(fmt.Sprintf("host: unknown Rx packet kind %d", pkt.Kind))
	}
}

// Run implements device.Task for received packets and driver chores.
func (n *netDev) Run(it *device.Item) sim.Duration {
	h := n.h
	pkt := it.Pkt
	switch pkt.Kind {
	case flowData:
		f := n.flows[pkt.Flow]
		cost := h.irqCost(pkt) + n.stackCost()
		delivered, ack, ok := f.rcv.Receive(pkt.Seq, pkt.ECN())
		f.delivered(delivered)
		recordAck(it, ack, ok)
		return cost
	case flowAck:
		n.flows[pkt.Flow].snd.OnAck(ackOf(pkt), h.eng.Now())
		return h.cfg.AckRxCost
	case unmapTx:
		cost, err := n.dom.UnmapTx(it.M)
		if err != nil {
			panic(fmt.Sprintf("host: UnmapTx: %v", err))
		}
		return cost
	case remapMR:
		cost, err := n.dom.RemapRxDescriptor(n.flows[pkt.Flow].dst.mr.chunks[pkt.Seq])
		if err != nil {
			panic(fmt.Sprintf("host: RemapRx(rdma window): %v", err))
		}
		return cost
	}
	panic(fmt.Sprintf("host: no core work for packet kind %d", pkt.Kind))
}

// Done implements device.Task: ACK or arm the delayed ACK after a data
// segment, send more after an ACK.
func (n *netDev) Done(it *device.Item) {
	switch it.Pkt.Kind {
	case flowData:
		f := n.flows[it.Pkt.Flow]
		if it.Pkt.Flags&flagAcked != 0 {
			f.sendAck(ackOf(it.Pkt))
		} else {
			f.armFlush()
		}
	case flowAck:
		n.flows[it.Pkt.Flow].pump()
	}
}

// Run implements device.Task: charge the stack and map the outgoing
// packet, leaving the mapping in the item.
func (t *txPrep) Run(it *device.Item) sim.Duration {
	n := (*netDev)(t)
	cfg := &n.h.cfg
	pkt := it.Pkt
	var cost sim.Duration
	var pages int
	switch pkt.Kind {
	case flowData:
		cost, pages = cfg.StackCost, n.mtuPages()
	case flowAck:
		cost, pages = cfg.AckTxCost, 1
		n.c.acksSent++
	case msgSeg, serveSeg:
		cost, pages = cfg.AckTxCost, (int(pkt.Bytes)+4095)/4096
	case rdmaReq:
		return cfg.StackCost // a work request, no buffer to map
	default:
		panic(fmt.Sprintf("host: no Tx preparation for packet kind %d", pkt.Kind))
	}
	m, mc, err := n.dom.MapTx(int(pkt.CPU), pages)
	if err != nil {
		panic(fmt.Sprintf("host: MapTx(kind %d): %v", pkt.Kind, err))
	}
	it.M = m
	return cost + mc
}

// Done implements device.Task: hand the mapped packet to the NIC.
func (t *txPrep) Done(it *device.Item) {
	n := (*netDev)(t)
	switch it.Pkt.Kind {
	case flowData:
		n.flows[it.Pkt.Flow].sendQueued--
	case rdmaReq:
		f := n.flows[it.Pkt.Flow]
		f.carry(&f.src, it.Pkt)
		return
	}
	n.dev.SendTx(it.Pkt, it.M)
}

// onTxDone handles completion of a local Tx DMA: the driver unmaps the
// buffer (strict safety) and the packet goes onto the wire.
func (n *netDev) onTxDone(pkt nic.Packet, m *core.TxMapping) {
	h := n.h
	if !h.cfg.DDIO {
		h.bus.Consume(int(pkt.Bytes)) // the DMA read
	}
	if m != nil {
		n.post(int(pkt.CPU), device.Item{Task: n, Pkt: packet.Packet{Kind: unmapTx}, M: m})
	}
	switch pkt.Kind {
	case flowData:
		f := n.flows[pkt.Flow]
		f.carry(&f.dst, pkt)
	case flowAck:
		f := n.flows[pkt.Flow]
		f.carry(&f.src, pkt)
	case msgSeg, serveSeg:
		n.toRemote.Send(pkt, (*remoteEnd)(n))
	default:
		panic(fmt.Sprintf("host: unknown Tx packet kind %d", pkt.Kind))
	}
}

// Arrive implements fabric.Sink for the abstract remote host: the far
// end of the toRemote wire, with an infinitely fast CPU and no IOMMU.
func (r *remoteEnd) Arrive(pkt packet.Packet) {
	n := (*netDev)(r)
	switch pkt.Kind {
	case flowAck:
		f := n.flows[pkt.Flow]
		f.snd.OnAck(ackOf(pkt), n.h.eng.Now())
		f.pump()
	case flowData:
		n.flows[pkt.Flow].receive(pkt)
	case msgSeg:
		n.h.msgs.remoteReceive(pkt)
	case serveSeg:
		n.h.serve.clientReceive(pkt)
	default:
		panic(fmt.Sprintf("host: remote end got packet kind %d", pkt.Kind))
	}
}

// Arrive implements fabric.Sink for a nic end: packets that reach a
// cluster host without entering its Rx rings. One-sided frames land in
// the registered window, READ requests start the source NIC streaming,
// and a hardware ACK surfaces to the sending core as a completion (CQE
// poll), which re-arms the stream. Packets for stack ends are sent to
// the NIC itself.
func (n *netDev) Arrive(pkt packet.Packet) {
	switch pkt.Kind {
	case flowData:
		iovas, start := n.flows[pkt.Flow].dst.mr.frame(pkt.Seq)
		n.dev.DirectRx(pkt, iovas, start)
	case rdmaReq:
		n.flows[pkt.Flow].pump()
	case flowAck:
		n.post(int(pkt.CPU), device.Item{Task: n, Pkt: pkt})
	default:
		panic(fmt.Sprintf("host: fabric delivered packet kind %d to the NIC's one-sided engine", pkt.Kind))
	}
}
