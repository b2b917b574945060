package fastsafe

// One sub-benchmark per registered figure (BenchmarkFigures/<id>, ids
// from experiments.IDs()). Each iteration regenerates the figure with
// shortened (Quick) measurement windows; run the cmd/fsbench binary for
// full-length windows and printed tables.

import (
	"testing"

	"fastsafe/internal/experiments"
)

func BenchmarkFigures(b *testing.B) {
	o := experiments.Quick()
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.ByID(id, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
