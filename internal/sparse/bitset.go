package sparse

import (
	"math/bits"

	"bootes/internal/parallel"
)

// BitRows stores the column supports of a CSR pattern as compressed bitsets:
// for each row only the 64-bit words that contain at least one set bit are
// kept, each tagged with its word index, in CSR-of-words layout. Two row
// supports intersect by merging their word lists and popcounting the AND of
// colliding words — 64 columns per instruction instead of one per merge step,
// which is how the LSH sparsifier counts its candidate pairs exactly.
type BitRows struct {
	Rows int
	// Words is the number of 64-bit words spanning the column range,
	// ceil(cols/64); word indices are in [0, Words).
	Words   int
	Ptr     []int64
	WordIdx []int32
	Bits    []uint64
}

// PackBitRows packs the pattern of m into compressed bitset rows. Both passes
// are row-parallel over fixed-grain chunks with disjoint writes, so the
// result is bit-identical for any worker count.
func PackBitRows(m *CSR) *BitRows {
	br := &BitRows{Rows: m.Rows, Words: (m.Cols + 63) / 64}
	br.Ptr = make([]int64, m.Rows+1)
	cnt := make([]int32, m.Rows)
	parallel.For(m.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := int32(0)
			prev := int32(-1)
			for _, c := range m.Row(i) {
				if w := c >> 6; w != prev {
					n++
					prev = w
				}
			}
			cnt[i] = n
		}
	})
	for i := 0; i < m.Rows; i++ {
		br.Ptr[i+1] = br.Ptr[i] + int64(cnt[i])
	}
	br.WordIdx = make([]int32, br.Ptr[m.Rows])
	br.Bits = make([]uint64, br.Ptr[m.Rows])
	parallel.For(m.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := br.Ptr[i]
			prev := int32(-1)
			for _, c := range m.Row(i) {
				if w := c >> 6; w != prev {
					br.WordIdx[p] = w
					p++
					prev = w
				}
				br.Bits[p-1] |= 1 << (uint(c) & 63)
			}
		}
	})
	return br
}

// IntersectCount returns |support(row i) ∩ support(row j)| by merging the two
// word lists and popcounting the AND of each colliding word pair.
func (br *BitRows) IntersectCount(i, j int) int {
	wi := br.WordIdx[br.Ptr[i]:br.Ptr[i+1]]
	bi := br.Bits[br.Ptr[i]:br.Ptr[i+1]]
	wj := br.WordIdx[br.Ptr[j]:br.Ptr[j+1]]
	bj := br.Bits[br.Ptr[j]:br.Ptr[j+1]]
	n, p, q := 0, 0, 0
	for p < len(wi) && q < len(wj) {
		switch {
		case wi[p] < wj[q]:
			p++
		case wi[p] > wj[q]:
			q++
		default:
			n += bits.OnesCount64(bi[p] & bj[q])
			p++
			q++
		}
	}
	return n
}
