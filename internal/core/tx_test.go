package core

import (
	"errors"
	"testing"
)

// txModes names one mode per mapTx body and every mode with its own
// unmapTx: paged (Strict, Deferred, StrictPreserve), chunked
// (StrictContig, FNS, FNSHuge, DeferNoShootdown), cap (Cap,
// CapLazyRevoke), persistent and off.
var txModes = []Mode{
	Off, Strict, Deferred, StrictPreserve, StrictContig, FNS, Persistent,
	FNSHuge, DeferNoShootdown, Cap, CapLazyRevoke,
}

// A second UnmapTx of the same mapping is a named error that changes
// nothing: not the domain's counters, not the IOMMU's, not another
// packet's pages, and not the free list (the mapping is handed out once,
// not twice).
func TestUnmapTxReleasedMappingIsNamedError(t *testing.T) {
	for _, mode := range txModes {
		d := newDomain(t, mode)
		m1, _, err := d.MapTx(0, 2)
		if err != nil {
			t.Fatalf("%v: MapTx: %v", mode, err)
		}
		m2, _, err := d.MapTx(0, 2)
		if err != nil {
			t.Fatalf("%v: MapTx: %v", mode, err)
		}
		if _, err := d.UnmapTx(m1); err != nil {
			t.Fatalf("%v: UnmapTx: %v", mode, err)
		}
		before, mmuBefore := d.Counters(), d.IOMMU().Counters()
		cost, err := d.UnmapTx(m1)
		if !errors.Is(err, ErrTxMappingReleased) || cost != 0 {
			t.Fatalf("%v: second UnmapTx = (%v, %v), want (0, ErrTxMappingReleased)", mode, cost, err)
		}
		if d.Counters() != before || d.IOMMU().Counters() != mmuBefore {
			t.Fatalf("%v: a refused UnmapTx changed the counters", mode)
		}
		if mode.Translated() {
			for _, v := range m2.IOVAs {
				if !d.IOMMU().TableOf(d.ID()).Mapped(v) {
					t.Fatalf("%v: a refused UnmapTx unmapped live page %v", mode, v)
				}
			}
		}
		m3, _, _ := d.MapTx(0, 1)
		m4, _, _ := d.MapTx(0, 1)
		if m3 != m1 || m4 == m1 {
			t.Fatalf("%v: free list handed out %p then %p; want the released %p exactly once", mode, m3, m4, m1)
		}
	}
}

// TestMapUnmapTxZeroAlloc: once warm, a Tx map and unmap allocates
// nothing in any policy — mappings, their slices and Tx chunks come
// back from the domain's free lists.
func TestMapUnmapTxZeroAlloc(t *testing.T) {
	for _, mode := range txModes {
		d := newDomain(t, mode)
		round := func() {
			for _, pages := range []int{1, 3, 1} {
				m, _, err := d.MapTx(1, pages)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.UnmapTx(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			round()
		}
		d.FlushDeferred()
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Errorf("%v: MapTx+UnmapTx allocates %.2f times per round, want 0", mode, allocs)
		}
	}
}
