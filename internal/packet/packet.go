// Package packet defines the fixed-size packet header the datapath
// carries by value: the NIC queues it, fabric links deliver it, and host
// cores run work items built around it. It is a leaf package so that
// nic, fabric and host can all name the same type.
package packet

// Kind says what a packet is. The package reserves only the zero value;
// each endpoint defines the kinds it exchanges.
type Kind uint8

// Flags are per-packet bits. FlagECN is the network's; the bits from
// FlagUser up belong to the packet's kind.
type Flags uint8

const (
	// FlagECN marks the packet congestion-experienced. Switches and NICs
	// set it and nothing clears it.
	FlagECN Flags = 1 << iota
	// FlagUser is the first bit a kind may use for its own purposes.
	FlagUser
)

// Packet is one packet's header. It holds no pointers and no boxed
// payload: what a packet carries is its Kind plus the fields below, so
// a packet is copied, never allocated.
//
// The header is 24 bytes, and packet_test.go holds it there: it sits
// in every NIC ring and link in-flight slot and inside every host core
// work item, and each of those queues keeps its peak capacity for the
// whole run, so every added byte shows up in the live heap.
type Packet struct {
	Seq   int64  // segment sequence number, message or request id, or an ACK's cumulative point
	Bytes int32  // payload bytes on the wire
	Flow  int32  // flow, stream or connection index at the endpoint handling the packet
	Aux   int32  // one kind-specific word (a message segment's index)
	CPU   uint16 // target core and Rx ring (aRFS steering)
	Kind  Kind
	Flags Flags
}

// ECN reports whether the packet is marked congestion-experienced.
func (p Packet) ECN() bool { return p.Flags&FlagECN != 0 }

// MarkECN sets the congestion-experienced mark when marked is true.
func (p *Packet) MarkECN(marked bool) {
	if marked {
		p.Flags |= FlagECN
	}
}
