package plancache

import (
	"testing"

	"bootes/internal/workloads"
)

var keySink string

// BenchmarkKeyCSR hashes a hot-fleet-sized structure: a 768-row k-NN graph
// at 5% density.
func BenchmarkKeyCSR(b *testing.B) {
	m := workloads.KNNGraph(workloads.Params{Rows: 768, Cols: 768, Density: 0.05, Seed: 1})
	b.SetBytes(8*int64(len(m.RowPtr)) + 4*m.NNZ())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = KeyCSR(m)
	}
}
