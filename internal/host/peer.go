package host

import (
	"fmt"

	"fastsafe/internal/device"
	"fastsafe/internal/fabric"
	"fastsafe/internal/packet"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// Peer-to-peer bulk flows between two detailed hosts on a fabric. Unlike
// the legacy rxFlow/txFlow pairs — whose far end is the abstract remote
// host with an infinitely fast CPU and no IOMMU — a peerFlow's endpoints
// are both full hosts: the sender pays stack CPU, Tx map/unmap and Tx
// DMA translation on its own IOMMU; the receiver pays Rx DMA translation,
// stack CPU and ACK-generation costs on its own. Every packet (data and
// ACKs alike) crosses the switched fabric through the hosts' ports.

// peerFlow couples a DCTCP sender on one host with a receiver on another.
type peerFlow struct {
	id  int // cluster-wide flow index
	mtu int

	src, dst         *netDev
	srcCPU, dstCPU   int // device-local core indices
	srcPort, dstPort *fabric.Port
	// txIdx and rxIdx are the flow's places in src.peerTx and
	// dst.peerRx: a packet's Flow at the sending and receiving end.
	txIdx, rxIdx int

	snd *transport.Sender   // runs on src
	rcv *transport.Receiver // runs on dst

	start sim.Time // staggered first pump

	// sendQueued bounds the CPU-queue work outstanding for this flow.
	sendQueued int
	flushArmed bool // delayed-ACK timer pending at dst
	// pumpFn (on src) and flushFn (on dst) are bound once.
	pumpFn, flushFn func()
}

// ConnectPeer wires a bulk flow from this host to dst through the given
// fabric ports. Call before Start; the Cluster does this for every
// (src, dst) pair its traffic pattern names. srcCPU/dstCPU are
// device-local core indices on the primary NICs of the two hosts.
func (h *Host) ConnectPeer(dst *Host, srcPort, dstPort *fabric.Port, id, srcCPU, dstCPU int, start sim.Time) *peerFlow {
	f := &peerFlow{
		id:      id,
		mtu:     h.net.spec.MTU,
		src:     h.net,
		dst:     dst.net,
		srcCPU:  srcCPU,
		dstCPU:  dstCPU,
		srcPort: srcPort,
		dstPort: dstPort,
		txIdx:   len(h.net.peerTx),
		rxIdx:   len(dst.net.peerRx),
		snd:     transport.NewSender(h.cfg.Transport),
		rcv:     transport.NewReceiver(h.cfg.Transport),
		start:   start,
	}
	f.snd.Bind(transport.Endpoint{Host: h.cfg.HostID, Peer: dst.cfg.HostID})
	f.rcv.Bind(transport.Endpoint{Host: dst.cfg.HostID, Peer: h.cfg.HostID})
	f.pumpFn = func() { f.src.pumpPeerFlow(f) }
	f.flushFn = func() {
		f.flushArmed = false
		if ack, ok := f.rcv.TakeAck(); ok {
			f.dst.sendPeerAck(f, ack)
		}
	}
	h.net.peerTx = append(h.net.peerTx, f)
	dst.net.peerRx = append(dst.net.peerRx, f)
	if h.tele != nil {
		f.snd.RegisterProbes(h.tele.reg, h.tele.name(fmt.Sprintf("%s.peerflow%d.", h.net.name, id)))
	}
	return f
}

// pumpPeerFlow lets the local sender of flow f enqueue packets while its
// window allows: each transmission costs stack CPU plus the Tx mapping,
// then a NIC Tx DMA, then the fabric. Runs on f.src's host.
func (n *netDev) pumpPeerFlow(f *peerFlow) {
	for f.snd.CanSend() && f.sendQueued < 64 {
		seq, _ := f.snd.NextSend()
		f.snd.OnSent(seq, n.h.eng.Now())
		f.sendQueued++
		n.post(f.srcCPU, device.Item{Task: n.prep(), Pkt: packet.Packet{Kind: peerData, CPU: uint16(f.srcCPU),
			Bytes: int32(f.mtu), Flow: int32(f.txIdx), Seq: seq}})
	}
}

// sendPeerAck emits an ACK for peer flow f from the receiving host: CPU
// work to build and map it, a NIC Tx DMA, then the fabric back to the
// sender. Runs on f.dst's host.
func (n *netDev) sendPeerAck(f *peerFlow, ack transport.Ack) {
	n.post(f.dstCPU, device.Item{Task: n.prep(), Pkt: ackPacket(peerAck, f.dstCPU, f.rxIdx, ack)})
}

// armPeerFlush schedules a delayed-ACK flush at the receiving host.
func (n *netDev) armPeerFlush(f *peerFlow) {
	if f.flushArmed {
		return
	}
	f.flushArmed = true
	n.h.eng.After(n.h.cfg.DelAck, f.flushFn)
}

// peerDataRun is the receiving core's work for a bulk segment whose Rx
// DMA into this host's memory completed.
func (n *netDev) peerDataRun(it *device.Item) sim.Duration {
	f := n.peerRx[it.Pkt.Flow]
	cost := n.h.irqCost(it.Pkt) + n.stackCost()
	delivered, ack, ok := f.rcv.Receive(it.Pkt.Seq, it.Pkt.ECN())
	bytes := delivered * int64(f.mtu)
	// Goodput lands at the receiver; the sender's Tx accounting
	// mirrors it (delivery is what the paper's goodput counts).
	n.c.rxDeliveredBytes += bytes
	n.creditPeerTx(f.src, bytes)
	recordAck(it, ack, ok)
	return cost
}

// creditPeerTx mirrors delivered peer-flow bytes into the sending host's
// Tx accounting. Same-engine clusters apply it inline — exactly the
// legacy behaviour. Sharded clusters post it to the sender's shard, where
// it lands at the next synchronization barrier: the increment is
// commutative bookkeeping whose timing only mid-window sampler reads can
// observe, never simulated behaviour, and every post is drained before a
// window's clocks align, so Results are unchanged.
func (n *netDev) creditPeerTx(src *netDev, bytes int64) {
	if bytes == 0 {
		return
	}
	if credit := n.h.creditTx; credit != nil {
		credit(src, bytes)
		return
	}
	src.c.txDeliveredBytes += bytes
}
