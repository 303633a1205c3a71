package eigen

import (
	"errors"
	"math"
	"sort"
)

// JacobiEigen computes all eigenvalues and eigenvectors of a dense symmetric
// n×n matrix a (row-major, length n*n) with the cyclic Jacobi rotation
// method. It is O(n³) per sweep and serves as the independent reference the
// Householder + QL solver (symEigen) is tested against. a is not modified.
// Eigenvalues are ascending; eigenvector i is the i-th column of v
// (row-major).
func JacobiEigen(a []float64, n int) (eig []float64, v []float64, err error) {
	if len(a) != n*n {
		return nil, nil, errors.New("eigen: dense matrix size mismatch")
	}
	m := append([]float64(nil), a...)
	v = make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i*n+j] * m[i*n+j]
			}
		}
		if off < 1e-24 {
			eig = make([]float64, n)
			for i := 0; i < n; i++ {
				eig[i] = m[i*n+i]
			}
			// Sort ascending with eigenvectors.
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(x, y int) bool { return eig[idx[x]] < eig[idx[y]] })
			se := make([]float64, n)
			sv := make([]float64, n*n)
			for newCol, oldCol := range idx {
				se[newCol] = eig[oldCol]
				for row := 0; row < n; row++ {
					sv[row*n+newCol] = v[row*n+oldCol]
				}
			}
			return se, sv, nil
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation G(p,q,θ) on both sides: m = Gᵀ m G.
				for k := 0; k < n; k++ {
					mkp, mkq := m[k*n+p], m[k*n+q]
					m[k*n+p] = c*mkp - s*mkq
					m[k*n+q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = c*mpk - s*mqk
					m[q*n+k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	return nil, nil, ErrNoConverge
}
