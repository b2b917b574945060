package iommu

import (
	"math/rand"
	"reflect"
	"testing"

	"fastsafe/internal/ptable"
)

// Model-based property test: against any interleaving of map, unmap,
// strict/preserving invalidation and translation, the IOMMU must never
// return a *wrong* address. A translation is either (a) correct per the
// live page table, (b) explicitly flagged Stale (a cached entry for an
// unmapped IOVA — the deferred-mode hole, visible to the caller), or
// (c) a fault. Silent mistranslation — returning mapping X's bytes for
// mapping Y — must be impossible.
func TestPropertyNoSilentMistranslation(t *testing.T) {
	const pages = 64
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{IOTLBSets: 4, IOTLBWays: 2, L1Size: 2, L2Size: 2, L3Size: 2})
		// Shadow model of the live mappings.
		shadow := map[ptable.IOVA]ptable.Phys{}
		nextPhys := ptable.Phys(1 << 20)

		for op := 0; op < 4000; op++ {
			v := ptable.IOVA(uint64(rng.Intn(pages)) * ptable.PageSize)
			switch rng.Intn(5) {
			case 0: // map
				if _, live := shadow[v]; !live {
					nextPhys += ptable.PageSize
					if err := m.Table().Map(v, nextPhys); err != nil {
						t.Fatalf("seed %d op %d: map: %v", seed, op, err)
					}
					shadow[v] = nextPhys
				}
			case 1: // unmap + strict invalidation
				if _, live := shadow[v]; live {
					if _, err := m.Table().Unmap(v, ptable.PageSize); err != nil {
						t.Fatalf("seed %d op %d: unmap: %v", seed, op, err)
					}
					m.Invalidate(v, 1, false)
					delete(shadow, v)
				}
			case 2: // unmap + IOTLB-only invalidation (F&S) + reclaim hook
				if _, live := shadow[v]; live {
					res, err := m.Table().Unmap(v, ptable.PageSize)
					if err != nil {
						t.Fatalf("seed %d op %d: unmap: %v", seed, op, err)
					}
					m.Invalidate(v, 1, true)
					m.InvalidateReclaimed(res.Reclaimed)
					delete(shadow, v)
				}
			default: // translate and check against the shadow model
				tr := m.Translate(v)
				want, live := shadow[v]
				switch {
				case tr.OK && !tr.Stale:
					if !live {
						t.Fatalf("seed %d op %d: %v translated OK while unmapped (unflagged stale)", seed, op, v)
					}
					if tr.Phys != want {
						t.Fatalf("seed %d op %d: %v -> %#x, want %#x (silent mistranslation)",
							seed, op, v, uint64(tr.Phys), uint64(want))
					}
				case tr.OK && tr.Stale:
					// Stale hits only possible without invalidation; both
					// unmap paths above invalidate the IOTLB entry, so this
					// must never happen here.
					t.Fatalf("seed %d op %d: stale hit despite strict invalidation", seed, op)
				default:
					if live {
						t.Fatalf("seed %d op %d: %v faulted while mapped", seed, op, v)
					}
				}
			}
		}
		if c := m.Counters(); c.StaleIOTLBUses != 0 || c.StalePTUses != 0 {
			t.Fatalf("seed %d: stale-use counters nonzero: %+v", seed, c)
		}
	}
}

// Same property across two domains sharing tiny caches: heavy cross-domain
// eviction pressure must never leak a translation between domains.
func TestPropertyCrossDomainNoLeak(t *testing.T) {
	const pages = 32
	rng := rand.New(rand.NewSource(99))
	m := New(Config{IOTLBSets: 2, IOTLBWays: 2, L1Size: 2, L2Size: 2, L3Size: 2})
	doms := []DomainID{m.CreateDomain(), m.CreateDomain()}
	shadow := map[DomainID]map[ptable.IOVA]ptable.Phys{doms[0]: {}, doms[1]: {}}
	nextPhys := ptable.Phys(1 << 24)

	for op := 0; op < 6000; op++ {
		d := doms[rng.Intn(2)]
		v := ptable.IOVA(uint64(rng.Intn(pages)) * ptable.PageSize)
		switch rng.Intn(4) {
		case 0:
			if _, live := shadow[d][v]; !live {
				nextPhys += ptable.PageSize
				if err := m.TableOf(d).Map(v, nextPhys); err != nil {
					t.Fatal(err)
				}
				shadow[d][v] = nextPhys
			}
		case 1:
			if _, live := shadow[d][v]; live {
				if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
					t.Fatal(err)
				}
				m.InvalidateIn(d, v, 1, false)
				delete(shadow[d], v)
			}
		default:
			tr := m.TranslateIn(d, v)
			want, live := shadow[d][v]
			if tr.OK && !tr.Stale {
				if !live || tr.Phys != want {
					t.Fatalf("op %d: domain %d leaked/mistranslated %v", op, d, v)
				}
			} else if !tr.OK && live {
				t.Fatalf("op %d: domain %d faulted on live mapping %v", op, d, v)
			}
		}
	}
}

// Two device domains and one capability domain interleave every
// domain-scoped operation over the shared hardware: map/unmap under the
// strict, F&S and deferred unmap paths, a whole-span unmap that reclaims
// a page-table page (with and without the F&S reclaim hook),
// translation, capability grant,
// revoke and check, and the ATS charges, with an occasional
// ResetCounters. The properties the device layer depends on:
//
//  1. No cross-domain leakage or silent mistranslation (re-checked here
//     under the F&S and deferred unmap paths, which
//     TestPropertyCrossDomainNoLeak does not exercise).
//  2. Per-domain attribution is exact: an operation scoped to domain d
//     leaves CountersOf(e) unchanged for every e != d. host/results.go
//     derives the per-device breakdown from CountersOf, so a counter
//     charged to the wrong domain would silently misreport device
//     interference.
//  3. Summing CountersOf over Domains reproduces Counters field for field,
//     every field is exercised (non-zero at some point), and
//     ResetCounters zeroes the counters but keeps the capability grants.
//
// FlushAll is deliberately absent: a global flush belongs to no single
// domain, so attribution only holds for the domain-scoped entry points.
func TestPropertyPerDomainCountersSumToGlobal(t *testing.T) {
	const pages = 32
	fields := reflect.TypeOf(Counters{}).NumField()
	seen := make([]bool, fields)
	markSeen := func(c Counters) {
		cv := reflect.ValueOf(c)
		for i := range seen {
			seen[i] = seen[i] || cv.Field(i).Int() != 0
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{IOTLBSets: 2, IOTLBWays: 2, L1Size: 2, L2Size: 2, L3Size: 2})
		doms := []DomainID{m.CreateDomain(), m.CreateDomain()}
		capDom := m.CreateDomain()
		ct := m.AttachCapTable(capDom)
		grants := map[ptable.IOVA]ptable.Phys{}
		shadow := map[DomainID]map[ptable.IOVA]ptable.Phys{doms[0]: {}, doms[1]: {}}
		// deferred holds IOVAs unmapped without any invalidation, whose
		// stale IOTLB hits are expected; they are not remapped until a
		// flush invalidates them.
		deferred := map[DomainID]map[ptable.IOVA]bool{doms[0]: {}, doms[1]: {}}
		// spanMapped tracks the second 2MB span, mapped and unmapped
		// whole so that its PT-L4 page is reclaimed.
		spanMapped := map[DomainID]bool{}
		nextPhys := ptable.Phys(1 << 28)
		snapshot := func() []Counters {
			var out []Counters
			for _, d := range m.Domains() {
				out = append(out, m.CountersOf(d))
			}
			return out
		}

		for op := 0; op < 5000; op++ {
			d := doms[rng.Intn(2)]
			v := ptable.IOVA(uint64(rng.Intn(pages)) * ptable.PageSize)
			if rng.Intn(500) == 0 {
				markSeen(m.Counters())
				m.ResetCounters()
				if c := m.Counters(); c != (Counters{}) {
					t.Fatalf("seed %d op %d: counters after reset: %+v", seed, op, c)
				}
				if ct.Len() != len(grants) {
					t.Fatalf("seed %d op %d: reset left %d grants, want %d", seed, op, ct.Len(), len(grants))
				}
				for g := range grants {
					if !ct.Granted(g) {
						t.Fatalf("seed %d op %d: reset dropped the grant for %v", seed, op, g)
					}
				}
				continue
			}
			before := snapshot()
			switch rng.Intn(10) {
			case 0: // map
				if _, live := shadow[d][v]; !live && !deferred[d][v] {
					nextPhys += ptable.PageSize
					if err := m.TableOf(d).Map(v, nextPhys); err != nil {
						t.Fatal(err)
					}
					shadow[d][v] = nextPhys
				}
			case 1: // unmap + strict invalidation
				if _, live := shadow[d][v]; live {
					if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
						t.Fatal(err)
					}
					m.InvalidateIn(d, v, 1, false)
					delete(shadow[d], v)
				}
			case 2: // unmap + IOTLB-only invalidation + reclaim hook (F&S)
				if _, live := shadow[d][v]; live {
					res, err := m.TableOf(d).Unmap(v, ptable.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					m.InvalidateIn(d, v, 1, true)
					m.InvalidateReclaimedIn(d, res.Reclaimed)
					delete(shadow[d], v)
				}
			case 3: // deferred unmap: stale IOTLB and PTcache entries remain
				if _, live := shadow[d][v]; live {
					if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
						t.Fatal(err)
					}
					delete(shadow[d], v)
					deferred[d][v] = true
				}
			case 4: // flush the deferred unmaps with strict invalidations
				for dv := range deferred[d] {
					m.InvalidateIn(d, dv, 1, false)
					delete(deferred[d], dv)
				}
			case 5: // capability grant, revoke or check
				d = capDom
				switch rng.Intn(3) {
				case 0:
					nextPhys += ptable.PageSize
					ct.Grant(v, nextPhys)
					grants[v] = nextPhys
				case 1:
					if ct.Revoke(v) != (grants[v] != 0) {
						t.Fatalf("seed %d op %d: revoke of %v disagrees with the shadow", seed, op, v)
					}
					delete(grants, v)
				default:
					tr := m.TranslateIn(capDom, v)
					if want, ok := grants[v]; tr.OK != ok || tr.Phys != want || !tr.Cap {
						t.Fatalf("seed %d op %d: cap check of %v = %+v, grant %v", seed, op, v, tr, want)
					}
				}
			case 6: // whole-span map, or unmap with reclamation
				if rng.Intn(8) != 0 {
					break
				}
				base := ptable.IOVA(ptable.L4PageSpan)
				if !spanMapped[d] {
					for i := 0; i < 512; i++ {
						nextPhys += ptable.PageSize
						if err := m.TableOf(d).Map(base+ptable.IOVA(i*ptable.PageSize), nextPhys); err != nil {
							t.Fatal(err)
						}
					}
					if tr := m.TranslateIn(d, base); !tr.OK || tr.Stale {
						t.Fatalf("seed %d op %d: span translation = %+v", seed, op, tr)
					}
					spanMapped[d] = true
					break
				}
				res, err := m.TableOf(d).Unmap(base, ptable.L4PageSpan)
				if err != nil {
					t.Fatal(err)
				}
				m.InvalidateIn(d, base, 512, true)
				// Skipping the reclaim hook leaves a PTcache-L3 entry
				// pointing at the freed page: the next walk of the span
				// counts a stale use.
				if rng.Intn(2) == 0 {
					m.InvalidateReclaimedIn(d, res.Reclaimed)
				}
				spanMapped[d] = false
			case 7: // ATS charges
				if rng.Intn(2) == 0 {
					m.ChargeATSRequest(d)
				} else {
					m.ChargeATCInvalidation(d, rng.Int63n(4))
				}
			default: // translate, checked against the shadow model
				tr := m.TranslateIn(d, v)
				want, live := shadow[d][v]
				switch {
				case tr.OK && !tr.Stale:
					if !live || tr.Phys != want {
						t.Fatalf("seed %d op %d: domain %d leaked/mistranslated %v", seed, op, d, v)
					}
				case tr.OK && tr.Stale:
					if !deferred[d][v] {
						t.Fatalf("seed %d op %d: stale hit despite invalidation", seed, op)
					}
				default:
					if live {
						t.Fatalf("seed %d op %d: domain %d faulted on live mapping %v", seed, op, d, v)
					}
				}
			}
			after := snapshot()
			for e := range after {
				if DomainID(e) != d && after[e] != before[e] {
					t.Fatalf("seed %d op %d: an op in domain %d changed domain %d's counters:\n  before: %+v\n  after:  %+v",
						seed, op, d, e, before[e], after[e])
				}
			}
			markSeen(m.Counters())
		}

		// The sum property, field-for-field via reflection so a counter
		// added later can't silently escape attribution.
		var sum Counters
		sv := reflect.ValueOf(&sum).Elem()
		for _, d := range m.Domains() {
			dc := reflect.ValueOf(m.CountersOf(d))
			for i := 0; i < sv.NumField(); i++ {
				sv.Field(i).SetInt(sv.Field(i).Int() + dc.Field(i).Int())
			}
		}
		if global := m.Counters(); sum != global {
			t.Fatalf("seed %d: per-domain counters don't sum to global:\n  sum:    %+v\n  global: %+v", seed, sum, global)
		}
		// The untouched default domain must have no charges.
		if c := m.CountersOf(0); c != (Counters{}) {
			t.Fatalf("seed %d: default domain charged without traffic: %+v", seed, c)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("Counters.%s was never exercised", reflect.TypeOf(Counters{}).Field(i).Name)
		}
	}
}
