package core

import (
	"errors"

	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// Tx datapath. Unlike Rx descriptors, Tx packets arrive one at a time from
// the stack and each packet needs its own page-sized mappings (§3). Under
// F&S, per-CPU descriptor-sized IOVA chunks are filled *across* packets in
// transmission order, so invalidations can still be ranged. The per-mode
// bodies live with their policies (policy.go, cap.go).

// txPool is the per-CPU freelist of persistent pre-mapped Tx pages.
type txPool struct {
	free []ptable.IOVA
}

// MapTx maps a Tx packet occupying the given number of pages on cpu.
func (d *Domain) MapTx(cpu, pages int) (*TxMapping, sim.Duration, error) {
	if pages <= 0 {
		pages = 1
	}
	m, cost, err := d.pol.mapTx(d, cpu, pages)
	if m != nil {
		m.pol = d.pol
	}
	return m, cost, err
}

func (d *Domain) txPools(cpu int) *txPool {
	if d.txPool == nil {
		d.txPool = make([]*txPool, d.cfg.NumCPUs)
	}
	if d.txPool[cpu] == nil {
		d.txPool[cpu] = &txPool{}
	}
	return d.txPool[cpu]
}

// ErrTxMappingReleased is UnmapTx's answer for a mapping that was
// already unmapped. Mappings are recycled, so a second unmap would
// otherwise tear down whichever packet reuses the mapping next.
var ErrTxMappingReleased = errors.New("core: UnmapTx of a released Tx mapping")

// UnmapTx completes a Tx packet: unmap its pages and invalidate (or
// revoke) per the policy that mapped it — a packet in flight across a
// runtime mode switch completes under the rules that laid it out.
// Strict safety requires the device to lose access as soon as the
// packet completes, so even F&S invalidates here — but ranged over each
// contiguous run the packet occupies within its chunks.
//
// On success m goes back to the domain's free list, and the caller must
// drop it. Unmapping it again returns ErrTxMappingReleased and changes
// nothing.
func (d *Domain) UnmapTx(m *TxMapping) (sim.Duration, error) {
	if m.released {
		return 0, ErrTxMappingReleased
	}
	pol := m.pol
	if pol == nil {
		pol = d.pol
	}
	cost, err := pol.unmapTx(d, m)
	if err == nil {
		d.releaseTxMapping(m)
	}
	return cost, err
}

// newTxMapping takes an empty mapping for cpu from the free list,
// keeping the capacity of its slices, or allocates one.
func (d *Domain) newTxMapping(cpu int) *TxMapping {
	n := len(d.txFree)
	if n == 0 {
		return &TxMapping{cpu: cpu}
	}
	m := d.txFree[n-1]
	d.txFree[n-1] = nil
	d.txFree = d.txFree[:n-1]
	m.cpu, m.released = cpu, false
	return m
}

// releaseTxMapping empties an unmapped mapping onto the free list.
func (d *Domain) releaseTxMapping(m *TxMapping) {
	m.IOVAs = m.IOVAs[:0]
	clear(m.chunks)
	m.chunks = m.chunks[:0]
	m.pol = nil
	m.released = true
	d.txFree = append(d.txFree, m)
}

// newTxChunk takes a chunk for the IOVA range at base from the free
// list, or allocates one.
func (d *Domain) newTxChunk(base ptable.IOVA) *txChunk {
	n := len(d.chunkFree)
	if n == 0 {
		return &txChunk{base: base, pages: d.cfg.DescriptorPages}
	}
	ch := d.chunkFree[n-1]
	d.chunkFree[n-1] = nil
	d.chunkFree = d.chunkFree[:n-1]
	*ch = txChunk{base: base, pages: d.cfg.DescriptorPages}
	return ch
}

// releaseTxChunk returns a fully released chunk to the free list. No
// live mapping refers to it: every slot's packet has been unmapped.
func (d *Domain) releaseTxChunk(ch *txChunk) {
	d.chunkFree = append(d.chunkFree, ch)
}
