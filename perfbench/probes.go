package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fastsafe/internal/ats"
	"fastsafe/internal/core"
	"fastsafe/internal/fabric"
	"fastsafe/internal/iova"
	"fastsafe/internal/nic"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

// span is the host time of a batch of calls into one public function.
type span struct {
	Op     string `json:"op"`
	Calls  int    `json:"calls"`
	NS     int64  `json:"ns"`
	Allocs uint64 `json:"allocs"`
}

// probeResult summarises one probed operation over its batches.
type probeResult struct {
	ns     float64 // median over batches of host ns per call
	allocs float64 // heap allocations per call over every batch
}

// prober times calls into the layers' public functions on the model a
// traced run left behind. The calls mutate that model, so probing starts
// only after the run's output digest is taken.
type prober struct {
	m            *model
	eng          *sim.Engine
	iotlbHitFrac float64
	spans        []span
}

const (
	probeBatches = 9 // odd, so the median is one batch's figure
	probeCPU     = 0
)

// timed runs fn as one timed batch of calls and records its span. fn
// must do exactly calls calls of op and nothing else.
func (p *prober) timed(op string, calls int, fn func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	p.spans = append(p.spans, span{Op: op, Calls: calls, NS: d.Nanoseconds(), Allocs: b.Mallocs - a.Mallocs})
}

// results folds the recorded spans per operation.
func (p *prober) results() map[string]probeResult {
	perCall := make(map[string][]float64)
	calls := make(map[string]float64)
	allocs := make(map[string]float64)
	for _, s := range p.spans {
		perCall[s.Op] = append(perCall[s.Op], float64(s.NS)/float64(s.Calls))
		calls[s.Op] += float64(s.Calls)
		allocs[s.Op] += float64(s.Allocs)
	}
	out := make(map[string]probeResult, len(perCall))
	for op, xs := range perCall {
		out[op] = probeResult{ns: median(xs), allocs: allocs[op] / calls[op]}
	}
	return out
}

// drain steps the engine until done reports true. The model's own
// events fire too; only the probe's calls were timed.
func (p *prober) drain(what string, done func() bool) error {
	for i := 0; !done(); i++ {
		if i > 50_000_000 || !p.eng.Step() {
			return fmt.Errorf("probe %s: work did not complete", what)
		}
	}
	return nil
}

// probeAll runs every layer probe and returns the spans it recorded.
// iotlbHitFrac is the window's IOTLB hit fraction, which the translate
// probe reproduces.
func probeAll(m *model, iotlbHitFrac float64) (map[string]probeResult, []span, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, nil, err
	}
	p := &prober{m: m, eng: eng, iotlbHitFrac: iotlbHitFrac}
	// Scheduling at the current instant only fires the probe's own
	// event while no other event is due now, which holds right after a
	// run and before any probe steps the engine; so this goes first.
	p.scheduleFire()
	p.transport()
	p.observe()
	for _, f := range []func() error{
		p.iovaAllocFree, p.ptableMapUnmap, p.coreRx, p.coreTx,
		p.iommu, p.ats, p.pcie, p.nic, p.fabric,
	} {
		if err := f(); err != nil {
			return nil, nil, err
		}
	}
	return p.results(), p.spans, nil
}

// probeHost is the host whose layers the probes call: the only host, or
// in a cluster host 1, the receiving end of the first pair.
func (p *prober) probeHost() int {
	if p.m.c != nil {
		return 1
	}
	return 0
}

func (p *prober) domain() *core.Domain { return p.m.hosts()[p.probeHost()].Domain() }

func (p *prober) scheduleFire() {
	const n = 4096
	noop := func() {}
	for b := 0; b < probeBatches; b++ {
		p.timed("sim.schedule_fire", n, func() {
			for i := 0; i < n; i++ {
				p.eng.At(p.eng.Now(), noop)
				p.eng.Step()
			}
		})
	}
}

func (p *prober) transport() {
	const n = 4096
	s := transport.NewSender(transport.Params{InitCwnd: 32, MaxCwnd: 64})
	r := transport.NewReceiver(transport.Params{AckEvery: 8})
	seg := func() {
		if !s.CanSend() {
			if ack := r.FlushAck(); ack != nil {
				s.OnAck(*ack, 0)
			}
		}
		seq, _ := s.NextSend()
		s.OnSent(seq, 0)
		if _, ack := r.OnData(seq, false); ack != nil {
			s.OnAck(*ack, 0)
		}
	}
	for b := 0; b < probeBatches; b++ {
		p.timed("transport.segment_ack", n, func() {
			for i := 0; i < n; i++ {
				seg()
			}
		})
	}
}

func (p *prober) observe() {
	const n = 4096
	var h stats.Histogram
	for b := 0; b < probeBatches; b++ {
		p.timed("stats.observe", n, func() {
			for i := 0; i < n; i++ {
				h.Observe(int64(1000 + (i*7919)%100000))
			}
		})
	}
}

// allocPages is the IOVA range size the domain's policy allocates: one
// chunk per descriptor in the contiguous modes, one page otherwise.
func (p *prober) allocPages() int {
	d := p.domain()
	if d.Mode().Contiguous() {
		return d.DescriptorPages()
	}
	return 1
}

func (p *prober) iovaAllocFree() error {
	const n = 4096
	pages := p.allocPages()
	a := iova.NewCached(1)
	pair := func() error {
		v, ok := a.Alloc(probeCPU, pages)
		if !ok {
			return fmt.Errorf("probe iova: allocation of %d pages failed", pages)
		}
		a.Free(probeCPU, v, pages)
		return nil
	}
	if err := pair(); err != nil { // fill the magazine
		return err
	}
	var err error
	for b := 0; b < probeBatches && err == nil; b++ {
		p.timed("iova.alloc_free", n, func() {
			for i := 0; i < n && err == nil; i++ {
				err = pair()
			}
		})
	}
	return err
}

// freeBase is the start of an IOVA range no workload allocates: the
// allocators hand out addresses top-down from the top of the 48-bit space.
const freeBase = ptable.IOVA(1 << 40)

func (p *prober) ptableMapUnmap() error {
	const n = 4096
	d := p.domain()
	t := d.IOMMU().TableOf(d.ID())
	for i := 0; i < n; i++ {
		if v := freeBase + ptable.IOVA(i)*ptable.PageSize; t.Mapped(v) {
			return fmt.Errorf("probe ptable: %v already mapped", v)
		}
	}
	var err error
	for b := 0; b < probeBatches && err == nil; b++ {
		p.timed("ptable.map_unmap", n, func() {
			for i := 0; i < n && err == nil; i++ {
				v := freeBase + ptable.IOVA(i)*ptable.PageSize
				if err = t.Map(v, ptable.Phys(v)); err == nil {
					_, err = t.Unmap(v, ptable.PageSize)
				}
			}
		})
	}
	if err != nil {
		return fmt.Errorf("probe ptable: %w", err)
	}
	return nil
}

// unmapDescs unmaps descriptors and flushes any invalidations the policy
// deferred, so no batch inherits the previous batch's backlog.
func (p *prober) unmapDescs(descs []*core.Descriptor) error {
	d := p.domain()
	for _, desc := range descs {
		if _, err := d.UnmapRxDescriptor(desc); err != nil {
			return fmt.Errorf("probe core: unmap: %w", err)
		}
	}
	d.FlushDeferred()
	return nil
}

func (p *prober) coreRx() error {
	const n = 32
	d := p.domain()
	for b := 0; b < probeBatches; b++ {
		var err error
		descs := make([]*core.Descriptor, n)
		p.timed("core.map_rx", n, func() {
			for i := 0; i < n && err == nil; i++ {
				descs[i], _, err = d.MapRxDescriptor(probeCPU)
			}
		})
		if err != nil {
			return fmt.Errorf("probe core: map: %w", err)
		}
		p.timed("core.unmap_rx", n, func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = d.UnmapRxDescriptor(descs[i])
			}
		})
		if err != nil {
			return fmt.Errorf("probe core: unmap: %w", err)
		}
		d.FlushDeferred()
	}
	return nil
}

func (p *prober) coreTx() error {
	const n = 1024
	d := p.domain()
	var err error
	for b := 0; b < probeBatches && err == nil; b++ {
		p.timed("core.map_tx", n, func() {
			for i := 0; i < n && err == nil; i++ {
				var m *core.TxMapping
				if m, _, err = d.MapTx(probeCPU, 1); err == nil {
					_, err = d.UnmapTx(m)
				}
			}
		})
		d.FlushDeferred()
	}
	if err != nil {
		return fmt.Errorf("probe core: tx: %w", err)
	}
	return nil
}

// livePages maps Rx descriptors on the probe domain until they hold at
// least n pages, and returns the descriptors and their pages.
func (p *prober) livePages(n int) ([]*core.Descriptor, []ptable.IOVA, error) {
	var descs []*core.Descriptor
	var pages []ptable.IOVA
	for len(pages) < n {
		desc, _, err := p.domain().MapRxDescriptor(probeCPU)
		if err != nil {
			return nil, nil, fmt.Errorf("probe core: map: %w", err)
		}
		descs = append(descs, desc)
		pages = append(pages, desc.IOVAs...)
	}
	return descs, pages, nil
}

func (p *prober) iommu() error {
	const n = 4096
	d := p.domain()
	mmu, dom := d.IOMMU(), d.ID()
	t := mmu.TableOf(dom)
	descs, pages, err := p.livePages(1024)
	if err != nil {
		return err
	}
	// Translating each page repeat times in a row gives one IOTLB miss
	// and repeat-1 hits, the window's own mix: 1024 pages overflow the
	// IOTLB, so the first translation of a page misses.
	repeat := 64
	if p.iotlbHitFrac < 1-1.0/64 {
		repeat = int(math.Round(1 / (1 - p.iotlbHitFrac)))
	}
	for b := 0; b < probeBatches; b++ {
		p.timed("iommu.translate", n, func() {
			for i := 0; i < n; i++ {
				mmu.TranslateIn(dom, pages[(i/repeat)%len(pages)])
			}
		})
		p.timed("ptable.lookup", n, func() {
			for i := 0; i < n; i++ {
				t.Lookup(pages[i%len(pages)])
			}
		})
		k := len(pages)
		p.timed("iommu.invalidate", k, func() {
			for i := 0; i < k; i++ {
				mmu.InvalidateIn(dom, pages[i], 1, false)
			}
		})
	}
	return p.unmapDescs(descs)
}

func (p *prober) ats() error {
	const n = 4096
	d := p.domain()
	atc := d.ATC()
	entries := 64
	if atc == nil {
		mmu := d.IOMMU()
		atc = ats.New(mmu, d.ID(), mmu.TranslatorOf(d.ID()), ats.Config{Entries: entries})
	}
	descs, pages, err := p.livePages(entries / 2)
	if err != nil {
		return err
	}
	pages = pages[:entries/2] // resident after one pass: every later call hits
	for _, v := range pages {
		atc.Translate(v)
	}
	for b := 0; b < probeBatches; b++ {
		p.timed("ats.translate", n, func() {
			for i := 0; i < n; i++ {
				atc.Translate(pages[i%len(pages)])
			}
		})
	}
	return p.unmapDescs(descs)
}

func (p *prober) pcie() error {
	const n = 256
	l := p.m.hosts()[p.probeHost()].NewLink()
	completed := 0
	done := func() { completed++ }
	for b := 0; b < probeBatches; b++ {
		p.timed("pcie.submit", n, func() {
			for i := 0; i < n; i++ {
				l.Submit(4096, 1, done)
			}
		})
		want := (b + 1) * n
		if err := p.drain("pcie", func() bool { return completed == want }); err != nil {
			return err
		}
	}
	return nil
}

// hostExec runs the probe NIC's per-packet CPU work on the probe host's cores.
type hostExec struct{ p *prober }

func (e hostExec) Do(cpu int, work func() sim.Duration, done func()) {
	e.p.m.hosts()[e.p.probeHost()].Exec(cpu, work, done)
}

func (p *prober) nic() error {
	const n = 64
	h := p.m.hosts()[p.probeHost()]
	dev, err := nic.New(p.eng, nic.Config{Cores: 1}, h.Domain(), h.NewLink(), h.NewLink(), hostExec{p})
	if err != nil {
		return fmt.Errorf("probe nic: %w", err)
	}
	finished := 0
	dev.OnDeliver = func(nic.Packet) { finished++ }
	dev.OnDrop = func(nic.Packet) { finished++ }
	for b := 0; b < probeBatches; b++ {
		p.timed("nic.arrive", n, func() {
			for i := 0; i < n; i++ {
				dev.Arrive(nic.Packet{CPU: probeCPU, Bytes: 4096})
			}
		})
		want := (b + 1) * n
		if err := p.drain("nic", func() bool { return finished == want }); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) fabric() error {
	const n = 256
	var sw *fabric.Switch
	if p.m.c != nil {
		sw = p.m.c.Switch()
	} else {
		var err error
		if sw, err = fabric.NewSwitch(p.eng, 2, fabric.Config{}); err != nil {
			return fmt.Errorf("probe fabric: %w", err)
		}
	}
	delivered := 0
	deliver := func(bool) { delivered++ }
	for b := 0; b < probeBatches; b++ {
		p.timed("fabric.send", n, func() {
			for i := 0; i < n; i++ {
				sw.Port(0).Send(1, 4096, deliver)
			}
		})
		want := (b + 1) * n
		if err := p.drain("fabric", func() bool { return delivered == want }); err != nil {
			return err
		}
	}
	return nil
}
