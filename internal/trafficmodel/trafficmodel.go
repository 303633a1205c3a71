// Package trafficmodel provides a fast, row-granular estimate of the
// off-chip traffic a row-wise-product SpGEMM generates. Where
// internal/accel simulates a set-associative cache at line granularity with
// PE interleaving, this model treats the on-chip cache as a fully
// associative LRU over whole B rows — an O(nnz(A)) single pass. The decision
// tree labeller and the Figure 3 cluster-size sweep use it to score
// thousands of (matrix, k) combinations quickly; its ranking agrees with the
// detailed simulator because both are driven by the same reuse distances.
package trafficmodel

import "bootes/internal/sparse"

// Estimate is the outcome of one traffic estimation.
type Estimate struct {
	// BTraffic is the estimated bytes fetched from DRAM for B rows.
	BTraffic int64
	// BCompulsory is the sum of all referenced B-row sizes (one fetch each).
	BCompulsory int64
	// Hits and Misses count row-granular cache events.
	Hits, Misses int64
}

// Ratio returns BTraffic / BCompulsory (1 = perfect reuse), or 0 when no
// B rows are referenced.
func (e Estimate) Ratio() float64 {
	if e.BCompulsory == 0 {
		return 0
	}
	return float64(e.BTraffic) / float64(e.BCompulsory)
}

// OperandB returns the B operand the paper pairs with A in C = A·B: A itself
// when A is square, Aᵀ otherwise. B is never reordered.
func OperandB(a *sparse.CSR) *sparse.CSR {
	if a.Rows == a.Cols {
		return a
	}
	return sparse.Transpose(a)
}

// EstimateB runs the row-granular LRU model: rows of A are processed in
// order, and every nonzero A[i,k] touches B row k (all of its bytes) in an
// LRU cache of capacityBytes. elemBytes is the storage cost per stored
// nonzero (12 in the accelerator configs).
func EstimateB(a, b *sparse.CSR, capacityBytes, elemBytes int64) (Estimate, error) {
	return EstimateBWithPerm(a, b, sparse.IdentityPerm(a.Rows), capacityBytes, elemBytes)
}

// EstimateBWithPerm is EstimateB after applying row permutation perm to A,
// without materializing the permuted matrix.
func EstimateBWithPerm(a, b *sparse.CSR, perm sparse.Permutation, capacityBytes, elemBytes int64) (Estimate, error) {
	if err := perm.Validate(a.Rows); err != nil {
		return Estimate{}, err
	}
	if a.Cols != b.Rows {
		return Estimate{}, sparse.ErrDimension
	}
	var est Estimate
	rowBytes := make([]int64, b.Rows)
	for k := 0; k < b.Rows; k++ {
		rowBytes[k] = (b.RowPtr[k+1] - b.RowPtr[k]) * elemBytes
	}
	referenced := make([]bool, b.Rows)
	for _, k := range a.Col {
		if !referenced[k] {
			referenced[k] = true
			est.BCompulsory += rowBytes[k]
		}
	}

	// Fully associative LRU over B rows.
	lru := newRowLRU(b.Rows)
	var resident int64
	for _, oldRow := range perm {
		for _, k := range a.Row(int(oldRow)) {
			if lru.in[k] {
				lru.unlink(k)
				lru.pushFront(k)
				est.Hits++
				continue
			}
			est.Misses++
			est.BTraffic += rowBytes[k]
			if rowBytes[k] >= capacityBytes {
				// Row larger than the cache: streams through, never resident.
				continue
			}
			resident += rowBytes[k]
			lru.pushFront(k)
			for resident > capacityBytes {
				victim := lru.tail
				lru.unlink(victim)
				resident -= rowBytes[victim]
			}
		}
	}
	return est, nil
}

// rowLRU is a recency list of resident B rows threaded through index
// arrays, so a miss allocates nothing: prev and next link the rows from the
// most recent (head) to the least recent (tail), and -1 ends the list.
type rowLRU struct {
	prev, next []int32
	in         []bool // row is resident
	head, tail int32
}

func newRowLRU(rows int) *rowLRU {
	return &rowLRU{
		prev: make([]int32, rows), next: make([]int32, rows), in: make([]bool, rows),
		head: -1, tail: -1,
	}
}

// pushFront makes row k resident as the most recent row.
func (l *rowLRU) pushFront(k int32) {
	l.in[k] = true
	l.prev[k], l.next[k] = -1, l.head
	if l.head >= 0 {
		l.prev[l.head] = k
	} else {
		l.tail = k
	}
	l.head = k
}

// unlink removes resident row k from the list.
func (l *rowLRU) unlink(k int32) {
	l.in[k] = false
	p, n := l.prev[k], l.next[k]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail = p
	}
}
