package nic

import (
	"testing"

	"fastsafe/internal/ats"
	"fastsafe/internal/core"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// newDirectHarness is newHarness with a device-side ATS cache on the
// domain, for exercising the one-sided (DirectRx/SendTxDirect) path.
func newDirectHarness(t *testing.T, mode core.Mode, atsEntries int, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(1)}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	dom, err := core.NewDomain(core.Config{
		Mode: mode, NumCPUs: cfg.Cores, DescriptorPages: 8,
		ATS: ats.Config{Entries: atsEntries},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.dom = dom
	h.rx = pcie.New(h.eng, 65, 197, 128)
	h.tx = pcie.New(h.eng, 65, 197, 128)
	n, err := New(h.eng, cfg, h.dom, h.rx, h.tx, &instantExec{h.eng})
	if err != nil {
		t.Fatal(err)
	}
	h.nic = n
	n.OnDeliver = func(p Packet) { h.delivered = append(h.delivered, p) }
	n.OnDrop = func(p Packet) { h.dropped = append(h.dropped, p) }
	n.OnTxDone = func(p Packet, m *core.TxMapping) {
		if m != nil {
			t.Fatalf("one-sided Tx completed with a mapping: %+v", m)
		}
		h.txDone = append(h.txDone, p)
	}
	return h
}

// window registers a fixed-IOVA memory window of one descriptor and
// returns its page-sized IOVAs.
func window(t *testing.T, h *harness) []ptable.IOVA {
	t.Helper()
	desc, _, err := h.dom.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	return desc.IOVAs
}

func TestFrameStride(t *testing.T) {
	h := newHarness(t, core.Off, Config{})
	// Default HeaderBytes 66, StrideAlign 256: 4096+66 rounds to 4352.
	if got := h.nic.FrameStride(4096); got != 4352 {
		t.Fatalf("FrameStride(4096) = %d, want 4352", got)
	}
	if got := h.nic.FrameStride(0); got%256 != 0 || got == 0 {
		t.Fatalf("FrameStride(0) = %d, want positive multiple of 256", got)
	}
}

func TestDirectRxDeliversThroughATC(t *testing.T) {
	h := newDirectHarness(t, core.FNS, 64, Config{})
	iovas := window(t, h)
	h.nic.DirectRx(Packet{Bytes: 4096, Seq: 1}, iovas, 0)
	h.nic.DirectRx(Packet{Bytes: 4096, Seq: 2}, iovas, 0)
	h.eng.RunAll()
	if len(h.delivered) != 2 {
		t.Fatalf("delivered = %v", h.delivered)
	}
	if h.nic.BufferOccupancy() != 0 {
		t.Fatal("buffer not drained")
	}
	st := h.nic.Stats()
	if st.RxDMAs != 2 {
		t.Fatalf("RxDMAs = %d, want 2", st.RxDMAs)
	}
	ac := h.dom.ATC().Counters()
	if ac.Lookups == 0 {
		t.Fatal("one-sided DMA performed no ATC lookups")
	}
	// The second frame re-walks the same window: its transactions must
	// be device-TLB hits.
	if ac.Hits == 0 {
		t.Fatalf("repeat window access missed the device TLB: %+v", ac)
	}
}

func TestDirectRxWithoutATCUsesIOMMU(t *testing.T) {
	h := newDirectHarness(t, core.Strict, 0, Config{})
	iovas := window(t, h)
	h.nic.DirectRx(Packet{Bytes: 4096}, iovas, 0)
	h.eng.RunAll()
	if len(h.delivered) != 1 {
		t.Fatalf("delivered = %v", h.delivered)
	}
	if h.dom.ATC() != nil {
		t.Fatal("domain grew an ATC without entries")
	}
	if c := h.dom.IOMMU().Counters(); c.Translations == 0 {
		t.Fatal("no IOMMU translations on the direct path")
	}
}

func TestDirectRxMarksAtOwnThreshold(t *testing.T) {
	// Arrive-path marking disabled (the host default); the direct path
	// marks at its own threshold — one frame in flight is enough.
	h := newDirectHarness(t, core.Off, 0, Config{ECNKBytes: -1, DirectECNKBytes: 1000})
	iovas := window(t, h)
	for i := 0; i < 4; i++ {
		h.nic.DirectRx(Packet{Bytes: 4096}, iovas, 0)
	}
	h.eng.RunAll()
	if st := h.nic.Stats(); st.Marked == 0 {
		t.Fatalf("no ECN marks above DirectECNKBytes: %+v", st)
	}
	var ecn int
	for _, p := range h.delivered {
		if p.ECN() {
			ecn++
		}
	}
	if ecn == 0 {
		t.Fatal("marked frames not delivered with ECN set")
	}
}

func TestDirectRxMarkFallbackAndDisable(t *testing.T) {
	// DirectECNKBytes 0 falls back to ECNKBytes.
	h := newDirectHarness(t, core.Off, 0, Config{ECNKBytes: 1000})
	iovas := window(t, h)
	for i := 0; i < 4; i++ {
		h.nic.DirectRx(Packet{Bytes: 4096}, iovas, 0)
	}
	h.eng.RunAll()
	if st := h.nic.Stats(); st.Marked == 0 {
		t.Fatalf("fallback threshold did not mark: %+v", st)
	}
	// Negative disables even when ECNKBytes would mark.
	h2 := newDirectHarness(t, core.Off, 0, Config{ECNKBytes: 1000, DirectECNKBytes: -1})
	iovas2 := window(t, h2)
	for i := 0; i < 4; i++ {
		h2.nic.DirectRx(Packet{Bytes: 4096}, iovas2, 0)
	}
	h2.eng.RunAll()
	if st := h2.nic.Stats(); st.Marked != 0 {
		t.Fatalf("disabled direct marking still marked: %+v", st)
	}
}

func TestDirectRxTailDrops(t *testing.T) {
	h := newDirectHarness(t, core.Off, 0, Config{BufferBytes: 5000})
	iovas := window(t, h)
	for i := 0; i < 3; i++ {
		h.nic.DirectRx(Packet{Bytes: 4096}, iovas, 0)
	}
	h.eng.RunAll()
	if len(h.dropped) == 0 {
		t.Fatal("overfull buffer dropped nothing")
	}
	if st := h.nic.Stats(); st.Dropped == 0 || st.DroppedBytes == 0 {
		t.Fatalf("drop stats not charged: %+v", st)
	}
}

func TestSendTxDirectStreamsWindow(t *testing.T) {
	h := newDirectHarness(t, core.FNS, 64, Config{})
	iovas := window(t, h)
	stride := h.nic.FrameStride(4096)
	h.nic.SendTxDirect(Packet{Bytes: 4096, Seq: 1}, iovas, 0)
	h.nic.SendTxDirect(Packet{Bytes: 4096, Seq: 2}, iovas, stride)
	h.eng.RunAll()
	if len(h.txDone) != 2 {
		t.Fatalf("txDone = %v", h.txDone)
	}
	st := h.nic.Stats()
	if st.TxDMAs != 2 || st.TxBytes != 2*4096 {
		t.Fatalf("Tx stats = %+v", st)
	}
	if ac := h.dom.ATC().Counters(); ac.Lookups == 0 {
		t.Fatal("one-sided Tx performed no ATC lookups")
	}
	// No MapTx happened: the domain must have allocated nothing beyond
	// the window registration.
	if c := h.dom.Counters(); c.TxPacketsMapped != 0 {
		t.Fatalf("one-sided Tx mapped packets: %+v", c)
	}
}

// TestRingAndDirectRxShareCompletionOrder interleaves ring (Arrive) and
// one-sided (DirectRx) packets on the same Rx link: both paths complete
// through one in-flight FIFO, so each completion must reach the packet
// it belongs to, in submission order, and the ring's descriptor
// accounting must balance. Ring packets beyond the four-DMA pipeline
// wait in their ring queue while one-sided frames submit at once, which
// fixes the delivery order below.
func TestRingAndDirectRxShareCompletionOrder(t *testing.T) {
	h := newDirectHarness(t, core.Strict, 64, Config{})
	iovas := window(t, h)
	stride := h.nic.FrameStride(4096)
	for i := 0; i < 12; i++ {
		if i%3 == 1 {
			h.nic.DirectRx(Packet{Bytes: 4096, Seq: int64(i)}, iovas, stride*(i%2))
		} else {
			h.nic.Arrive(Packet{CPU: 0, Bytes: 4096, Seq: int64(i)})
		}
	}
	h.eng.RunAll()
	if len(h.delivered) != 12 {
		t.Fatalf("delivered %d packets, want 12", len(h.delivered))
	}
	want := []int{0, 1, 2, 3, 4, 7, 10, 5, 6, 8, 9, 11}
	for i, p := range h.delivered {
		if p.Seq != int64(want[i]) {
			t.Fatalf("delivery %d carried packet %d, want %d", i, p.Seq, want[i])
		}
	}
	if h.nic.BufferOccupancy() != 0 {
		t.Fatalf("buffer holds %d bytes after draining", h.nic.BufferOccupancy())
	}
	for d, n := range h.nic.rings[0].pending {
		if n != 0 {
			t.Fatalf("descriptor %p has %d DMAs outstanding after draining", d, n)
		}
	}
}
