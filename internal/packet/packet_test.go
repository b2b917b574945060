package packet

import (
	"testing"
	"unsafe"
)

// TestPacketSizeof holds the header at 24 bytes. Every NIC ring slot,
// link in-flight slot and host core work item embeds one, and those
// queues keep their peak capacity for the whole run: a wider header
// costs live heap in proportion to the deepest backlog, not to the
// packets in flight.
func TestPacketSizeof(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want <= 24", got)
	}
}

func TestMarkECNIsSticky(t *testing.T) {
	var p Packet
	if p.ECN() {
		t.Fatal("zero packet is marked")
	}
	p.MarkECN(false)
	if p.ECN() {
		t.Fatal("MarkECN(false) marked the packet")
	}
	p.MarkECN(true)
	p.MarkECN(false)
	if !p.ECN() {
		t.Fatal("a later unmarked hop cleared the mark")
	}
	if p.Flags&^FlagECN != 0 {
		t.Fatalf("MarkECN touched kind bits: %08b", p.Flags)
	}
}
