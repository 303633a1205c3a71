package eigen

import "math"

// symEigen computes every eigenpair of the symmetric n×n matrix held
// row-major in a[:n*n]: Householder tridiagonalization with the transforms
// accumulated, then implicit QL (tql) on the tridiagonal. On return d[:n]
// holds the eigenvalues in ascending order and row i of a the unit
// eigenvector of d[i]. e is scratch of length ≥ n. It allocates nothing, so
// the Lanczos restart loop can call it with preallocated buffers.
func symEigen(a []float64, n int, d, e []float64) error {
	if n == 0 {
		return nil
	}
	a, d, e = a[:n*n], d[:n], e[:n]
	tridiagonalize(a, n, d, e)
	if err := tql(d, e, a); err != nil {
		return err
	}
	sortAscending(d, a)
	return nil
}

// tridiagonalize reduces the symmetric matrix w (n×n row-major) to
// tridiagonal form T = Qᵀ·A·Q by Householder reflections (EISPACK tred2).
// On return d is T's diagonal, e[i] couples i and i+1 (e[n-1] = 0), and the
// rows of w are the columns of Q — the layout tql rotates in place.
//
// tred2 is written over the columns of its working array; here every access
// is transposed, which is the same algorithm on a symmetric input and makes
// each inner loop run along a contiguous row.
func tridiagonalize(w []float64, n int, d, e []float64) {
	row := func(j, length int) []float64 { return w[j*n : j*n+length] }
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			// The row is already reduced: skip the reflection.
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Householder vector, scaled against under/overflow.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Similarity transform of the leading i×i block.
		for j := 0; j < i; j++ {
			f = d[j]
			w[i*n+j] = f
			wj := row(j, i)
			g = e[j] + wj[j]*f
			for k := j + 1; k < i; k++ {
				g += wj[k] * d[k]
				e[k] += wj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			wj := row(j, i)
			for k := j; k < i; k++ {
				wj[k] -= f*e[k] + g*d[k]
			}
			d[j] = w[j*n+i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the reflections into Q.
	for i := 0; i < n-1; i++ {
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		v := row(i+1, i+1)
		if h := d[i+1]; h != 0 {
			for k := range v {
				d[k] = v[k] / h
			}
			for j := 0; j <= i; j++ {
				wj := row(j, i+1)
				g := dot(v, wj)
				for k := range wj {
					wj[k] -= g * d[k]
				}
			}
		}
		for k := range v {
			v[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	// tred2 leaves e[i] coupling i-1 and i; shift to the tql convention.
	copy(e, e[1:])
	e[n-1] = 0
}
