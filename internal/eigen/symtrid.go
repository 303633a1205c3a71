package eigen

import (
	"errors"
	"math"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// ErrNoConverge is returned when an iterative eigensolver exceeds its
// iteration budget.
var ErrNoConverge = errors.New("eigen: eigensolver failed to converge")

// SymTridEigen computes all eigenvalues and (optionally) eigenvectors of the
// symmetric tridiagonal matrix with diagonal d (length n) and off-diagonal e
// (length n-1, e[i] couples i and i+1), using the implicit QL algorithm with
// Wilkinson shifts (EISPACK tql2). Eigenvalues are returned in ascending
// order. When vectors is true, the i-th column of the returned z holds the
// eigenvector for eigenvalue i, with z stored row-major as z[row*n+col].
func SymTridEigen(d, e []float64, vectors bool) (eig []float64, z []float64, err error) {
	n := len(d)
	if n == 0 {
		return nil, nil, nil
	}
	if len(e) != n-1 && !(n == 1 && len(e) == 0) {
		return nil, nil, errors.New("eigen: off-diagonal length must be n-1")
	}
	eig = append([]float64(nil), d...)
	work := make([]float64, n)
	copy(work, e)
	var rows []float64
	if vectors {
		rows = make([]float64, n*n)
		for i := 0; i < n; i++ {
			rows[i*n+i] = 1
		}
	}
	if err := tql(eig, work, rows); err != nil {
		return nil, nil, err
	}
	sortAscending(eig, rows)
	if vectors {
		// tql keeps eigenvectors as rows; the documented layout is columns.
		z = make([]float64, n*n)
		for col := 0; col < n; col++ {
			for row := 0; row < n; row++ {
				z[row*n+col] = rows[col*n+row]
			}
		}
	}
	return eig, z, nil
}

// tql diagonalizes the symmetric tridiagonal matrix with diagonal d and
// off-diagonal e (e[i] couples i and i+1; len(e) == len(d), the last entry
// is scratch) in place by implicit QL with Wilkinson shifts, leaving the
// eigenvalues, unsorted, in d. When z is non-nil (n×n row-major), every
// plane rotation is applied to the row pair it mixes, so rows that start as
// the columns of an orthogonal Q end as the eigenvectors of Q·T·Qᵀ: the
// identity yields T's own eigenvectors, a Householder basis those of the
// matrix it tridiagonalized.
//
// An off-diagonal entry is negligible once |e_m| ≤ ε·‖T‖∞ + safeMin —
// deflation against the global norm, as EISPACK tql2 and LAPACK do, with
// LAPACK's smallest-normal floor so the threshold cannot underflow to zero
// when ‖T‖ is itself denormal. A test local to the neighbouring diagonal
// entries never fires when those are zero or denormal, and the iteration
// then stalls on a rank-deficient input.
func tql(d, e, z []float64) error {
	n := len(d)
	e[n-1] = 0
	tnorm := 0.0
	for i := 0; i < n; i++ {
		r := math.Abs(d[i]) + math.Abs(e[i])
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		tnorm = math.Max(tnorm, r)
	}
	tol := machEps*tnorm + safeMin

	const maxIter = 50
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a negligible off-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				if math.Abs(e[m]) <= tol {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return ErrNoConverge
			}
			// Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: recover and restart the sweep.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					rotateRows(z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n], c, s)
				}
			}
			if i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// rotateRows applies the plane rotation (c, s) to the row pair (a, b):
// a ← c·a − s·b, b ← s·a + c·b.
func rotateRows(a, b []float64, c, s float64) {
	b = b[:len(a)]
	for k, x := range a {
		y := b[k]
		b[k] = s*x + c*y
		a[k] = c*x - s*y
	}
}

// sortAscending orders the eigenvalues in d ascending by selection sort,
// swapping the matching rows of z (n×n row-major, nil when no vectors are
// kept). Selection sort does at most n−1 row swaps.
func sortAscending(d, z []float64) {
	n := len(d)
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k == i {
			continue
		}
		d[i], d[k] = d[k], d[i]
		if z != nil {
			a, b := z[i*n:(i+1)*n], z[k*n:(k+1)*n]
			for c := range a {
				a[c], b[c] = b[c], a[c]
			}
		}
	}
}

const (
	machEps = 2.220446049250313e-16
	safeMin = 0x1p-1022 // smallest normal float64
)
