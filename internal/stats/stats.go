// Package stats provides the small numeric toolkit the experiment harness
// needs: least-squares polynomial regression (the paper fits a cubic
// performance model to serial reasoning times, Figure 4) and percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// PolyFit fits ys ≈ Σ c[i]·xs^i of the given degree by least squares,
// returning the coefficients c[0..degree]. It solves the normal equations
// with Gaussian elimination and partial pivoting.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: PolyFit needs len(xs)==len(ys), got %d and %d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("stats: negative degree %d", degree)
	}
	if len(xs) < degree+1 {
		return nil, fmt.Errorf("stats: need at least %d points for degree %d, got %d", degree+1, degree, len(xs))
	}
	n := degree + 1
	// Normal equations: (AᵀA)c = Aᵀy with A[i][j] = xs[i]^j.
	ata := make([][]float64, n)
	aty := make([]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	for p := range xs {
		pow := make([]float64, 2*n-1)
		pow[0] = 1
		for i := 1; i < len(pow); i++ {
			pow[i] = pow[i-1] * xs[p]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ata[i][j] += pow[i+j]
			}
			aty[i] += pow[i] * ys[p]
		}
	}
	return solve(ata, aty)
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (m, rhs).
func solve(m [][]float64, rhs []float64) ([]float64, error) {
	n := len(rhs)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64{}, m[i]...)
		a[i] = append(a[i], rhs[i])
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: singular system (column %d)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		x[r] = a[r][n]
		for c := r + 1; c < n; c++ {
			x[r] -= a[r][c] * x[c]
		}
		x[r] /= a[r][r]
	}
	return x, nil
}

// PolyEval evaluates the polynomial with coefficients c (c[i] multiplies
// x^i) at x.
func PolyEval(c []float64, x float64) float64 {
	y := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		y = y*x + c[i]
	}
	return y
}

// RSquared is the coefficient of determination of fit c over (xs, ys).
func RSquared(c []float64, xs, ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i := range ys {
		d := ys[i] - PolyEval(c, xs[i])
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, without modifying xs. It returns 0
// for empty input; p is clamped to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
