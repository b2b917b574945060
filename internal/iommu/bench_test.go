package iommu

import (
	"testing"

	"fastsafe/internal/ptable"
)

func benchIOMMU(b *testing.B, pages int) *IOMMU {
	b.Helper()
	m := New(Config{})
	for i := 0; i < pages; i++ {
		if err := m.Table().Map(ptable.IOVA(uint64(i)*ptable.PageSize), ptable.Phys(i)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkTranslateIOTLBHit(b *testing.B) {
	m := benchIOMMU(b, 1)
	m.Translate(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Translate(0)
	}
}

func BenchmarkTranslateWalkPTCacheHit(b *testing.B) {
	m := benchIOMMU(b, 2)
	m.Translate(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(ptable.PageSize, 1, true)
		m.Translate(ptable.PageSize)
	}
}

func BenchmarkTranslateColdWalk(b *testing.B) {
	m := benchIOMMU(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(0, 2, false)
		m.Translate(0)
	}
}

func BenchmarkInvalidateRange(b *testing.B) {
	m := benchIOMMU(b, 64)
	for i := 0; i < 64; i++ {
		m.Translate(ptable.IOVA(uint64(i) * ptable.PageSize))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(0, 64, true)
	}
}

// BenchmarkInvalidateStrictPage is a single-page strict invalidation
// (IOTLB and PTcaches), the request the unmap path issues per page. Most
// of its cache keys miss, as they do in a strict-mode run.
func BenchmarkInvalidateStrictPage(b *testing.B) {
	m := benchIOMMU(b, 64)
	for i := 0; i < 64; i++ {
		m.Translate(ptable.IOVA(uint64(i) * ptable.PageSize))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InvalidateIn(0, ptable.IOVA(uint64(i%64)*ptable.PageSize), 1, false)
	}
}

// BenchmarkInvalidateStrictRange is a 64-page strict invalidation; as
// in BenchmarkInvalidateStrictPage, the caches are warm only for the
// first iteration.
func BenchmarkInvalidateStrictRange(b *testing.B) {
	m := benchIOMMU(b, 64)
	for i := 0; i < 64; i++ {
		m.Translate(ptable.IOVA(uint64(i) * ptable.PageSize))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(0, 64, false)
	}
}

// TestTranslateAndInvalidateAllocateNothing pins the steady-state cost of
// the translation pipeline: an IOTLB hit, a PTcache-hit walk, a cold walk
// and a ranged strict invalidation allocate nothing.
func TestTranslateAndInvalidateAllocateNothing(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 64; i++ {
		if err := m.Table().Map(ptable.IOVA(uint64(i)*ptable.PageSize), ptable.Phys(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Translate(0)
	m.Translate(ptable.PageSize)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"iotlb-hit", func() { m.Translate(0) }},
		{"ptcache-walk", func() {
			m.Invalidate(ptable.PageSize, 1, true)
			m.Translate(ptable.PageSize)
		}},
		{"cold-walk", func() {
			m.Invalidate(0, 2, false)
			m.Translate(0)
		}},
		{"invalidate", func() {
			m.Translate(0)
			m.InvalidateIn(0, 0, 64, false)
		}},
	} {
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f times per op, want 0", tc.name, allocs)
		}
	}
}
