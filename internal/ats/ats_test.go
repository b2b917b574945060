package ats

import (
	"testing"

	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/stats"
)

func newCache(t *testing.T, entries int) (*iommu.IOMMU, iommu.DomainID, *Cache) {
	t.Helper()
	m := iommu.New(iommu.Config{})
	d := m.CreateDomain()
	return m, d, New(m, d, m.TranslatorOf(d), Config{Entries: entries})
}

func mustMap(t *testing.T, m *iommu.IOMMU, d iommu.DomainID, v ptable.IOVA, p ptable.Phys) {
	t.Helper()
	if err := m.TableOf(d).Map(v, p); err != nil {
		t.Fatal(err)
	}
}

func TestMissFillsThenHits(t *testing.T) {
	m, d, a := newCache(t, 8)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)

	tr := a.Translate(v + 0x10)
	if !tr.OK || tr.ATC || tr.Phys != 0x9000 {
		t.Fatalf("miss path: %+v", tr)
	}
	// The ATS request costs one read beyond the walk itself.
	if want := 4 + 1; tr.MemReads != want {
		t.Fatalf("miss MemReads = %d, want %d", tr.MemReads, want)
	}
	tr = a.Translate(v + 0x20)
	if !tr.OK || !tr.ATC || tr.Phys != 0x9000 || tr.MemReads != 0 || tr.Stale {
		t.Fatalf("hit path: %+v", tr)
	}
	c := a.Counters()
	if c.Lookups != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters: %+v", c)
	}
	// The request landed in both the global and per-domain IOMMU views.
	if g := m.Counters(); g.ATSRequests != 1 {
		t.Fatalf("global ATSRequests = %d", g.ATSRequests)
	}
	if pd := m.CountersOf(d); pd.ATSRequests != 1 {
		t.Fatalf("per-domain ATSRequests = %d", pd.ATSRequests)
	}
}

func TestStaleHitAfterSilentUnmap(t *testing.T) {
	m, d, a := newCache(t, 8)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v)
	// Unmap WITHOUT invalidating the ATC: the defer-noshootdown pattern.
	if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
		t.Fatal(err)
	}
	tr := a.Translate(v)
	if !tr.ATC || !tr.Stale {
		t.Fatalf("unmapped page must be a stale ATC hit: %+v", tr)
	}
	// Remap the IOVA to a new physical page: still stale (re-pointed).
	mustMap(t, m, d, v, 0xa000)
	tr = a.Translate(v)
	if !tr.ATC || !tr.Stale || tr.Phys != 0x9000 {
		t.Fatalf("re-pointed page must be a stale ATC hit serving the old phys: %+v", tr)
	}
	if c := a.Counters(); c.StaleHits != 2 {
		t.Fatalf("StaleHits = %d, want 2", c.StaleHits)
	}
}

func TestInvalidateDropsAndForwards(t *testing.T) {
	m, d, a := newCache(t, 8)
	for i := 0; i < 4; i++ {
		v := ptable.IOVA(i * ptable.PageSize)
		mustMap(t, m, d, v, ptable.Phys(0x100000+i*ptable.PageSize))
		a.Translate(v)
	}
	before := m.CountersOf(d)
	a.Invalidate(0, 2, false)
	if a.Len() != 2 {
		t.Fatalf("Len = %d after invalidating 2 of 4", a.Len())
	}
	c := a.Counters()
	if c.InvMessages != 1 || c.Invalidated != 2 {
		t.Fatalf("counters: %+v", c)
	}
	pd := m.CountersOf(d)
	if pd.ATCInvRequests-before.ATCInvRequests != 1 || pd.ATCInvalidated-before.ATCInvalidated != 2 {
		t.Fatalf("per-domain ATC inv accounting: %+v -> %+v", before, pd)
	}
	// The request was forwarded to the IOMMU too.
	if pd.InvRequests-before.InvRequests != 1 {
		t.Fatalf("inner invalidation not forwarded")
	}
	// Invalidated entries miss again.
	if tr := a.Translate(0); tr.ATC {
		t.Fatal("entry survived its invalidation")
	}
}

func TestInvalidateAllFlushes(t *testing.T) {
	m, d, a := newCache(t, 8)
	for i := 0; i < 3; i++ {
		v := ptable.IOVA(i * ptable.PageSize)
		mustMap(t, m, d, v, ptable.Phys(0x100000+i*ptable.PageSize))
		a.Translate(v)
	}
	a.InvalidateAll()
	if a.Len() != 0 {
		t.Fatalf("Len = %d after flush", a.Len())
	}
	if c := a.Counters(); c.Invalidated != 3 {
		t.Fatalf("Invalidated = %d, want 3", c.Invalidated)
	}
	if pd := m.CountersOf(d); pd.ATCInvalidated != 3 {
		t.Fatalf("per-domain ATCInvalidated = %d", pd.ATCInvalidated)
	}
}

func TestLRUEviction(t *testing.T) {
	m, d, a := newCache(t, 2)
	for i := 0; i < 3; i++ {
		v := ptable.IOVA(i * ptable.PageSize)
		mustMap(t, m, d, v, ptable.Phys(0x100000+i*ptable.PageSize))
	}
	a.Translate(0)                            // cache {0}
	a.Translate(ptable.IOVA(ptable.PageSize)) // cache {0, 1}
	a.Translate(0)                            // touch 0: LRU order 0, 1
	a.Translate(ptable.IOVA(2 * ptable.PageSize))
	// Page 1 was least recent and must have been evicted; the
	// recently-touched page 0 must have survived (probe it first — the
	// page-1 probe re-inserts page 1 and evicts again).
	if tr := a.Translate(0); !tr.ATC {
		t.Fatal("recently-touched entry evicted")
	}
	if tr := a.Translate(ptable.IOVA(ptable.PageSize)); tr.ATC {
		t.Fatal("LRU victim survived")
	}
	if c := a.Counters(); c.Evictions < 1 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
}

func TestPRIFallbackOnFault(t *testing.T) {
	_, _, a := newCache(t, 8)
	tr := a.Translate(ptable.IOVA(0x7000)) // never mapped
	if tr.OK || tr.ATC {
		t.Fatalf("unmapped translation: %+v", tr)
	}
	// Walk (4 reads) + ATS request (1) + PRI round trip (5).
	if want := 4 + 1 + 5; tr.MemReads != want {
		t.Fatalf("PRI MemReads = %d, want %d", tr.MemReads, want)
	}
	if c := a.Counters(); c.PRIRequests != 1 {
		t.Fatalf("PRIRequests = %d", c.PRIRequests)
	}
	if a.Len() != 0 {
		t.Fatal("faulting translation cached")
	}
}

func TestAuditHookFiresOnHitsOnly(t *testing.T) {
	m, d, a := newCache(t, 8)
	var hits int
	a.SetAuditHook(func(v ptable.IOVA, tr iommu.Translation) {
		if !tr.ATC {
			t.Errorf("hook fired on a non-ATC translation: %+v", tr)
		}
		hits++
	})
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v) // miss: no hook
	a.Translate(v) // hit
	a.Translate(v) // hit
	if hits != 2 {
		t.Fatalf("hook fired %d times, want 2", hits)
	}
}

func TestRegisterProbes(t *testing.T) {
	m, d, a := newCache(t, 8)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v)
	a.Translate(v)
	r := stats.NewRegistry()
	a.RegisterProbes(r, "nic0.ats.")
	for name, want := range map[string]float64{
		"nic0.ats.lookups":   2,
		"nic0.ats.hits":      1,
		"nic0.ats.misses":    1,
		"nic0.ats.occupancy": 1,
	} {
		got, ok := r.Value(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestInsertReusesEntries pins the ATC's steady-state cost: capacity
// evictions and invalidations recycle entries instead of allocating.
func TestInsertReusesEntries(t *testing.T) {
	_, _, a := newCache(t, 4)
	for i := 0; i < 4; i++ {
		a.insert(ptable.IOVA(i*ptable.PageSize), 0x1000, false)
	}
	next := 4
	allocs := testing.AllocsPerRun(1000, func() {
		a.insert(ptable.IOVA(next*ptable.PageSize), 0x1000, false) // evicts
		a.remove(a.entries[ptable.IOVA(next*ptable.PageSize)])
		a.insert(ptable.IOVA((next+1)*ptable.PageSize), 0x1000, false)
		next += 2
	})
	if allocs != 0 {
		t.Fatalf("insert/evict cycle allocates %.2f times, want 0", allocs)
	}
	if a.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", a.Len())
	}
}
