package linalg

import (
	"errors"
	"fmt"
	"math"
)

// LU holds the result of an LU decomposition with partial pivoting:
// P*A = L*U where L is unit lower triangular, U is upper triangular, and
// P is the row permutation encoded by Perm (row i of P*A is row Perm[i]
// of A). Swaps counts row exchanges (used for the determinant sign).
type LU struct {
	L, U  *Matrix
	Perm  []int
	Swaps int
}

// ErrSingular is returned when a pivot (or the whole matrix) is singular
// to working precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Decompose computes the LU decomposition of square matrix a with
// partial (row) pivoting. a is not modified.
func Decompose(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Decompose needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	u := a.Clone()
	l := Identity(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	swaps := 0
	for k := 0; k < n; k++ {
		// Find pivot: largest |u[i][k]| for i >= k.
		p, best := k, math.Abs(u.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(u.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if p != k {
			u.swapRows(p, k)
			perm[p], perm[k] = perm[k], perm[p]
			swaps++
			// Swap the already-computed multipliers in L (columns < k).
			for j := 0; j < k; j++ {
				lp, lk := l.At(p, j), l.At(k, j)
				l.Set(p, j, lk)
				l.Set(k, j, lp)
			}
		}
		pivot := u.At(k, k)
		for i := k + 1; i < n; i++ {
			m := u.At(i, k) / pivot
			l.Set(i, k, m)
			u.Set(i, k, 0)
			for j := k + 1; j < n; j++ {
				u.Set(i, j, u.At(i, j)-m*u.At(k, j))
			}
		}
	}
	return &LU{L: l, U: u, Perm: perm, Swaps: swaps}, nil
}

// PermuteRows returns P*m for the decomposition's permutation: output row
// i is input row Perm[i].
func (lu *LU) PermuteRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, src := range lu.Perm {
		copy(out.Data[i*m.Cols:(i+1)*m.Cols], m.Data[src*m.Cols:(src+1)*m.Cols])
	}
	return out
}

// ForwardSub solves L*y = b for unit lower-triangular L.
func ForwardSub(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: ForwardSub shape mismatch L=%dx%d len(b)=%d", l.Rows, l.Cols, len(b))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		// L is unit lower triangular: diagonal is 1, but divide anyway to
		// support general lower-triangular systems.
		d := l.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		y[i] = s / d
	}
	return y, nil
}

// BackSub solves U*x = y for upper-triangular U.
func BackSub(u *Matrix, y []float64) ([]float64, error) {
	n := u.Rows
	if u.Cols != n || len(y) != n {
		return nil, fmt.Errorf("linalg: BackSub shape mismatch U=%dx%d len(y)=%d", u.Rows, u.Cols, len(y))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= u.At(i, j) * x[j]
		}
		d := u.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve solves A*x = b using LU decomposition with partial pivoting.
// This is exactly the pipeline of the paper's Linear Equation Solver
// application: LU decomposition, forward substitution, back substitution.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: Solve shape mismatch A=%dx%d len(b)=%d", a.Rows, a.Cols, len(b))
	}
	lu, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	pb := make([]float64, len(b))
	for i, src := range lu.Perm {
		pb[i] = b[src]
	}
	y, err := ForwardSub(lu.L, pb)
	if err != nil {
		return nil, err
	}
	return BackSub(lu.U, y)
}

// MatVec returns A*x.
func MatVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("linalg: MatVec shape mismatch A=%dx%d len(x)=%d", a.Rows, a.Cols, len(x))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s float64
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// Residual returns ||A*x - b||_inf, a convenience for solver validation.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := MatVec(a, x)
	if err != nil {
		return 0, err
	}
	if len(ax) != len(b) {
		return 0, fmt.Errorf("linalg: Residual length mismatch %d vs %d", len(ax), len(b))
	}
	var max float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max, nil
}
